"""Guarded-command execution over single-writer link registers.

A configuration is the product of all process states and all link registers.
One step activates a nonempty process set; every activated member computes
its effect against the configuration *before* the step (simultaneous
semantics), so concurrent neighbors read each other's stale registers.
Correct processes fire their first enabled guarded action; Byzantine
processes write whatever their adversary strategy dictates, but only to
their own state and output registers.

Guards and actions receive a LocalView and nothing else: no process ids, no
topology beyond the local degree. That is what keeps protocols anonymous.

One step kernel serves every caller: `fire` evaluates a correct process's
guards once and returns its action and effect, and `apply_effects` is the
only code that writes effects into a configuration.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .topology import Topology, build_topology


class EngineError(RuntimeError):
    """Internal execution-model violation (a bug, not protocol behavior)."""


class FairnessError(EngineError):
    """The daemon could not honor the configured fairness bound."""


class ProcessState(NamedTuple):
    prnt: int
    level: int


class RegisterValue(NamedTuple):
    prnt: bool
    level: int


class Configuration(NamedTuple):
    states: tuple[ProcessState, ...]
    registers: tuple[RegisterValue, ...]


class LocalView(NamedTuple):
    """Everything a process may read: its state and its link registers.

    ``in_regs[k-1]`` is the register written by the k-th neighbor toward
    this process; ``out_regs[k-1]`` the one this process writes toward it.
    """

    state: ProcessState
    degree: int
    in_regs: tuple[RegisterValue, ...]
    out_regs: tuple[RegisterValue, ...]


class LocalEffect(NamedTuple):
    state: ProcessState
    out_regs: tuple[RegisterValue, ...]


class ByzWrite(NamedTuple):
    state: ProcessState
    out_regs: tuple[RegisterValue, ...]


@dataclass(frozen=True)
class GuardedAction:
    label: str
    guard: Callable[[LocalView], bool]
    effect: Callable[[LocalView], LocalEffect]


class Protocol:
    """Stateless rule set (ordered guarded actions per role) that also owns
    its semantics, so callers never switch on `name`. All protocol state
    lives in the Configuration. A protocol fills in:

    - `name`, `o_variables` (the fields whose changes are disruptions),
      `prnt_min` (lowest prnt in the state domain), `reads_parent_bit`
      (whether it reads in-registers' parent bits), `bound_names` (the
      bounds its theorems give) and `legitimate_kinds` (the subsets
      `legitimate_configuration` draws from besides its default);
    - `actions` (and `enabled`, where guards share predicates); `spec`, the
      per-process specification; `in_legitimate_set`, which the oracle
      converges to and anchors in; `fast_stable`, a sufficient stability
      test that spares the search; and `legitimate_configuration`;
    - `sweep_bounds`, `sweep_placement` and `anchor_states` where the
      defaults do not fit.
    """

    name: str = ""
    o_variables: tuple[str, ...] = ()
    prnt_min: int = 0
    reads_parent_bit: bool = True
    bound_names: tuple[str, ...] = ()
    legitimate_kinds: tuple[str, ...] = ()

    def role_of(self, topo: Topology, pid: int) -> str:
        return "root" if topo.root == pid else "node"

    def actions(self, role: str) -> tuple[GuardedAction, ...]:
        raise NotImplementedError

    def enabled(self, role: str, view: LocalView) -> list[GuardedAction]:
        """The actions whose guards hold in `view`, in declaration order.
        Overrides may share predicates between guards but must return this."""
        return [a for a in self.actions(role) if a.guard(view)]

    def spec(self, v: int, config: Configuration, topo: Topology) -> bool:
        raise NotImplementedError

    def in_legitimate_set(self, config: Configuration, topo: Topology) -> bool:
        raise NotImplementedError

    def fast_stable(self, config: Configuration, topo: Topology) -> bool:
        return False

    def legitimate_configuration(self, topo: Topology, seed: int, kind: Optional[str] = None) -> Configuration:
        raise NotImplementedError

    @cached_property
    def _o_key(self) -> Callable[[ProcessState], object]:
        return attrgetter(*self.o_variables)

    def o_changed(self, before: ProcessState, after: ProcessState) -> bool:
        """Whether going from `before` to `after` changes an O-variable."""
        return self._o_key(before) != self._o_key(after)

    def sweep_bounds(self, f: int) -> list[str]:
        """The bounds a sweep checks with `f` Byzantine processes."""
        return list(self.bound_names)

    def sweep_placement(self, n: int, f: int, rng: random.Random) -> tuple[Optional[int], list[int]]:
        """Root and Byzantine processes of a sweep topology on `n` processes."""
        return None, (rng.sample(range(n), f) if f else [])

    def arbitrary_state(self, rng: random.Random, degree: int, n: int) -> ProcessState:
        return ProcessState(prnt=rng.randint(self.prnt_min, degree), level=rng.randint(0, 2 * n))

    def state_domain(self, degree: int, level_bound: int) -> list[ProcessState]:
        """Every state of a process of this degree with levels up to `level_bound`."""
        return [ProcessState(p, l) for p in range(self.prnt_min, degree + 1) for l in range(level_bound + 1)]

    def anchor_states(self, topo: Topology, v: int, level_bound: int) -> list[ProcessState]:
        """`v`'s states in legitimate configurations with levels up to
        `level_bound`; one pinned state for a Byzantine `v`, which nobody reads."""
        if v in topo.byzantine:
            return [ProcessState(self.prnt_min, 0)]
        return [s for s in self.state_domain(topo.degree(v), level_bound) if s.prnt >= 1]

    def register_domain(self, level_bound: int, current: RegisterValue) -> list[RegisterValue]:
        """Byzantine writes to a register holding `current`: every level up to
        `level_bound`, with both parent bits only when the protocol reads them."""
        bits = (False, True) if self.reads_parent_bit else (current.prnt,)
        return [RegisterValue(bit, l) for bit in bits for l in range(level_bound + 1)]


@dataclass(frozen=True)
class Step:
    activated: frozenset[int]
    actions: dict[int, Optional[str]]
    byz_writes: dict[int, Optional[ByzWrite]]


@dataclass
class ExecutionTrace:
    initial: Configuration
    configs: list[Configuration]
    steps: list[Step]
    round_ends: list[int]
    stop_reason: str = ""


@dataclass
class Daemon:
    """Scheduler: central activates one process per step, distributed any
    nonempty subset. Weak fairness is constructive: a correct process idle
    for `fairness_bound` steps is force-activated. With ``hostile=True`` the
    adversary proposes activation sets and the daemon only tops them up with
    forced processes.
    """

    kind: str = "distributed"
    fairness_bound: int = 8
    rng_seed: int = 0
    hostile: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("distributed", "central"):
            raise EngineError(f"unknown daemon kind {self.kind!r}")
        if self.fairness_bound < 1:
            raise EngineError("fairness bound must be positive")


@dataclass
class StopCondition:
    max_steps: int
    predicate: Optional[Callable[[Configuration], bool]] = None


def local_view(topo: Topology, config: Configuration, v: int) -> LocalView:
    degree, in_regs, out_regs = topo.register_access[v]
    regs = config.registers
    return LocalView(config.states[v], degree, in_regs(regs), regs[out_regs])


def evaluate_guards(view: LocalView, role: str, protocol: Protocol) -> list[str]:
    """Labels of all enabled actions, in declaration order. Pure."""
    return [a.label for a in protocol.enabled(role, view)]


def fire(topo: Topology, protocol: Protocol, config: Configuration, v: int) -> Optional[tuple[str, LocalEffect]]:
    """The step kernel: the label and effect of the action correct process
    `v` fires in `config`, or None when no guard holds. The protocol's
    `enabled` evaluates each guard once."""
    view = local_view(topo, config, v)
    enabled = protocol.enabled(protocol.role_of(topo, v), view)
    if not enabled:
        return None
    if len(enabled) > 1:
        # the protocols under study write mutually exclusive guards; two
        # enabled guards at once means the transliteration is wrong
        raise EngineError(f"guards not mutually exclusive at {v}: {[a.label for a in enabled]}")
    return enabled[0].label, enabled[0].effect(view)


def enabled_correct(topo: Topology, config: Configuration, protocol: Protocol) -> list[int]:
    return [v for v in sorted(topo.correct) if fire(topo, protocol, config, v) is not None]


def apply_effects(
    config: Configuration, topo: Topology, effects: Iterable[tuple[int, LocalEffect | ByzWrite]]
) -> Configuration:
    """Write each (process, effect) pair's new state and out-registers into a
    copy of `config`. Every effect must carry one register per neighbor."""
    states = list(config.states)
    registers = list(config.registers)
    access = topo.register_access
    for pid, (state, out_regs) in effects:
        degree, _, out_slots = access[pid]
        if len(out_regs) != degree:
            raise EngineError(f"effect for process {pid} has the wrong register count")
        states[pid] = state
        registers[out_slots] = out_regs
    return Configuration(tuple(states), tuple(registers))


def apply_step(config: Configuration, step: Step, protocol: Protocol, topo: Topology) -> Configuration:
    """Re-execute one recorded step from `config`: every activated correct
    process must have recorded the action enabled in `config`, and all
    effects are computed against `config` (stale reads), then merged."""
    if not step.activated:
        raise EngineError("activated set must be nonempty")
    for pid in step.byz_writes:
        if pid not in topo.byzantine:
            raise EngineError(f"byzantine write recorded for correct process {pid}")
        if pid not in step.activated:
            raise EngineError(f"byzantine write for non-activated process {pid}")

    effects: list[tuple[int, LocalEffect | ByzWrite]] = []
    for pid in sorted(step.activated):
        if pid in topo.byzantine:
            write = step.byz_writes.get(pid)
            if write is not None:
                effects.append((pid, write))
            continue
        fired = fire(topo, protocol, config, pid)
        label = fired[0] if fired else None
        recorded = step.actions.get(pid)
        if label != recorded:
            raise EngineError(f"step records action {recorded!r} for process {pid}, but {label!r} is enabled")
        if fired:
            effects.append((pid, fired[1]))
    return apply_effects(config, topo, effects)


class _Scheduler:
    def __init__(self, daemon: Daemon, topo: Topology):
        self.daemon = daemon
        self.topo = topo
        self.rng = random.Random(daemon.rng_seed)
        self.correct = sorted(topo.correct)
        self.last_seen = {v: 0 for v in self.correct}
        self.all_pids = list(range(topo.n))

    def pick(self, t: int, proposal: Optional[frozenset[int]]) -> frozenset[int]:
        bound = self.daemon.fairness_bound
        forced = {v for v in self.correct if t - self.last_seen[v] >= bound}
        if self.daemon.kind == "central":
            activated = self._pick_central(forced, proposal)
        else:
            activated = self._pick_distributed(forced, proposal)
        for v in activated:
            if v in self.last_seen:
                self.last_seen[v] = t
        leftover = {v for v in self.correct if t - self.last_seen[v] >= bound}
        if leftover:
            raise FairnessError(
                f"fairness bound {bound} unsatisfiable at step {t} (kind={self.daemon.kind})"
            )
        return frozenset(activated)

    def _pick_central(self, forced: set[int], proposal: Optional[frozenset[int]]) -> set[int]:
        if forced:
            oldest = min(self.last_seen[v] for v in forced)
            pick = self.rng.choice(sorted(v for v in forced if self.last_seen[v] == oldest))
            return {pick}
        if proposal:
            if len(proposal) != 1:
                raise EngineError("central daemon activates exactly one process")
            return set(proposal)
        return {self.rng.choice(self.all_pids)}

    def _pick_distributed(self, forced: set[int], proposal: Optional[frozenset[int]]) -> set[int]:
        if proposal is not None:
            activated = set(proposal) | forced
            if activated:
                return activated
        activated = {v for v in self.all_pids if self.rng.random() < 0.5} | forced
        if not activated:
            activated = {self.rng.choice(self.all_pids)}
        return activated


def run(
    topo: Topology,
    protocol: Protocol,
    adversary,
    daemon: Daemon,
    init: Configuration,
    stop: StopCondition,
) -> ExecutionTrace:
    """Execute until quiescence, a caller predicate, or the step budget.

    Deterministic given the daemon seed and the adversary's own seeding.
    Quiescence needs both no enabled correct process and an adversary that
    pledges it will never act again.
    """
    _check_shape(topo, init)
    configs = [init]
    steps: list[Step] = []
    sched = _Scheduler(daemon, topo)
    stop_reason = "max_steps"
    t = 0
    while True:
        config = configs[-1]
        if stop.predicate is not None and stop.predicate(config):
            stop_reason = "predicate"
            break
        if adversary.pledges_silence() and not enabled_correct(topo, config, protocol):
            stop_reason = "quiescent"
            break
        if t >= stop.max_steps:
            stop_reason = "max_steps"
            break
        t += 1
        proposal = None
        if daemon.hostile:
            proposal = adversary.propose_activation(config, topo, t)
            if proposal is not None:
                proposal = frozenset(proposal)
        activated = sched.pick(t, proposal)
        actions: dict[int, Optional[str]] = {}
        byz_writes: dict[int, Optional[ByzWrite]] = {}
        effects: list[tuple[int, LocalEffect | ByzWrite]] = []
        for pid in sorted(activated):
            if pid in topo.byzantine:
                write = byz_writes[pid] = adversary.act(config, topo, pid)
                if write is not None:
                    effects.append((pid, write))
            else:
                fired = fire(topo, protocol, config, pid)
                actions[pid] = fired[0] if fired else None
                if fired:
                    effects.append((pid, fired[1]))
        configs.append(apply_effects(config, topo, effects))
        steps.append(Step(activated=activated, actions=actions, byz_writes=byz_writes))
    trace = ExecutionTrace(
        initial=init,
        configs=configs,
        steps=steps,
        round_ends=[],
        stop_reason=stop_reason,
    )
    trace.round_ends = round_boundaries(trace, topo.correct)
    return trace


def round_boundaries(trace: ExecutionTrace, correct: frozenset[int]) -> list[int]:
    """1-based step counts at which each round completes.

    A round ends at the first step by which every correct process has been
    activated since the previous round ended; a trailing partial round is
    dropped. Activations of disabled processes count.
    """
    ends = []
    pending = set(correct)
    for i, step in enumerate(trace.steps, 1):
        pending -= step.activated
        if not pending:
            ends.append(i)
            pending = set(correct)
    return ends


def _check_shape(topo: Topology, config: Configuration) -> None:
    if len(config.states) != topo.n or len(config.registers) != topo.num_registers:
        raise EngineError("configuration shape does not match topology")


# ---------------------------------------------------------------------------
# initial configurations

def arbitrary_configuration(topo: Topology, protocol: Protocol, seed: int) -> Configuration:
    """Uniform draw over the bounded value domain: levels in [0, 2n], prnt
    from the protocol's prnt_min up to the degree, registers unconstrained."""
    rng = random.Random(seed)
    hi = 2 * topo.n
    states = tuple(protocol.arbitrary_state(rng, topo.degree(v), topo.n) for v in range(topo.n))
    registers = tuple(
        RegisterValue(prnt=rng.random() < 0.5, level=rng.randint(0, hi))
        for _ in range(topo.num_registers)
    )
    return Configuration(states=states, registers=registers)


def out_registers(prnt: int, level: int, degree: int) -> tuple[RegisterValue, ...]:
    """The out-registers a process in state (prnt, level) writes: the
    parent-facing one flagged true, all carrying its level."""
    return tuple(RegisterValue(prnt=(k == prnt), level=level) for k in range(1, degree + 1))


def consistent_registers(topo: Topology, states: Sequence[ProcessState]) -> tuple[RegisterValue, ...]:
    """Registers every process would write for its own state."""
    registers: list[RegisterValue] = [RegisterValue(False, 0)] * topo.num_registers
    for v, slots in enumerate(topo.out_slot):
        registers[slots[0] : slots[-1] + 1] = out_registers(states[v].prnt, states[v].level, len(slots))
    return tuple(registers)


# ---------------------------------------------------------------------------
# machine-checked execution-model invariants (used by tests on every trace)
#
# check_trace runs three audits:
# - locality: a step changes only its activated processes' states and their
#   out-registers;
# - replay, one pass: the trace starts at its initial configuration, and
#   each step, re-executed from its recorded before-configuration, finds
#   mutually exclusive guards, the recorded action enabled at every activated
#   correct process (priority), and the recorded after-configuration as the
#   merge of effects computed against the before-configuration (simultaneity);
# - fairness: no correct process idles for `bound` consecutive steps.

def check_locality(trace: ExecutionTrace, topo: Topology) -> None:
    for i, step in enumerate(trace.steps):
        before, after = trace.configs[i], trace.configs[i + 1]
        allowed_slots = {s for pid in step.activated for s in topo.out_slot[pid]}
        for pid in range(topo.n):
            if before.states[pid] != after.states[pid] and pid not in step.activated:
                raise EngineError(f"step {i}: non-activated process {pid} changed state")
        for slot in range(topo.num_registers):
            if before.registers[slot] != after.registers[slot] and slot not in allowed_slots:
                raise EngineError(f"step {i}: register {slot} changed outside activated set")


def check_replay(trace: ExecutionTrace, topo: Topology, protocol: Protocol) -> None:
    """Guards, priority, simultaneity and replay determinism in one pass."""
    if trace.configs[0] != trace.initial:
        raise EngineError("trace does not start at its initial configuration")
    for i, step in enumerate(trace.steps):
        try:
            after = apply_step(trace.configs[i], step, protocol, topo)
        except EngineError as exc:
            raise EngineError(f"step {i}: {exc}") from None
        if after != trace.configs[i + 1]:
            raise EngineError(f"step {i}: recorded result differs from the merged stale-read result")


# the replay pass checks both; the names stay for callers that audit by part
check_simultaneity = check_replay
check_priority = check_replay


def check_fairness(trace: ExecutionTrace, correct: frozenset[int], bound: int) -> None:
    """Every window of `bound` consecutive steps activates every correct
    process. One scan over the activations: a process idle from step a+1
    to step b-1 (0-based) misses the windows starting at a+1 .. b-bound."""
    steps = trace.steps
    last = dict.fromkeys(correct, -1)
    starts = []  # first window start of every idle gap that spans a window
    for i, step in enumerate(steps):
        for v in step.activated:
            seen = last.get(v)
            if seen is not None:
                if i - seen > bound:
                    starts.append(seen + 1)
                last[v] = i
    starts += [seen + 1 for seen in last.values() if len(steps) - seen > bound]
    if starts:
        first = min(starts)
        window = set().union(*(step.activated for step in steps[first : first + bound]))
        raise EngineError(
            f"fairness violated: {sorted(correct - window)} absent from steps {first + 1}..{first + bound}"
        )


def check_trace(trace: ExecutionTrace, topo: Topology, protocol: Protocol, fairness_bound: int) -> None:
    """All engine-semantics invariants in one call."""
    check_locality(trace, topo)
    check_replay(trace, topo, protocol)
    check_fairness(trace, topo.correct, fairness_bound)


# ---------------------------------------------------------------------------
# trace files: one JSON record per line

def write_trace(path: str, trace: ExecutionTrace, topo: Topology, protocol: Protocol) -> None:
    def reg(r: RegisterValue) -> list:
        return [int(r.prnt), r.level]

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
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        init = {
            "type": "init",
            "states": [list(s) for s in trace.initial.states],
            "registers": [reg(r) for r in trace.initial.registers],
        }
        fh.write(json.dumps(init, sort_keys=True) + "\n")
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
                    str(slot): reg(after.registers[slot])
                    for slot in range(topo.num_registers)
                    if after.registers[slot] != before.registers[slot]
                },
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        tail = {"type": "end", "stop_reason": trace.stop_reason, "round_ends": trace.round_ends}
        fh.write(json.dumps(tail, sort_keys=True) + "\n")


def read_trace(path: str) -> tuple[ExecutionTrace, Topology, str]:
    """Rebuild a trace and its topology from a trace file."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    meta = records[0] if records else {}
    if meta.get("type") != "meta":
        raise EngineError("trace file missing meta record")
    topo = build_topology(
        [tuple(e) for e in meta["edges"]],
        root=meta["root"],
        byzantine=meta["byz"],
        neighbor_order=meta["neighbor_order"],
    )
    init_rec = records[1]
    init = Configuration(
        states=tuple(ProcessState(*s) for s in init_rec["states"]),
        registers=tuple(RegisterValue(bool(r[0]), r[1]) for r in init_rec["registers"]),
    )
    configs = [init]
    steps = []
    stop_reason = ""
    round_ends: list[int] = []
    for rec in records[2:]:
        if rec["type"] == "end":
            stop_reason = rec["stop_reason"]
            round_ends = rec["round_ends"]
            continue
        prev = configs[-1]
        states = tuple(ProcessState(*s) for s in rec["states"])
        registers = list(prev.registers)
        for slot, val in rec["reg_diff"].items():
            registers[int(slot)] = RegisterValue(bool(val[0]), val[1])
        configs.append(Configuration(states=states, registers=tuple(registers)))
        byz_writes = {}
        for pid, w in rec["byz"].items():
            if w is None:
                byz_writes[int(pid)] = None
            else:
                byz_writes[int(pid)] = ByzWrite(
                    state=ProcessState(*w["state"]),
                    out_regs=tuple(RegisterValue(bool(r[0]), r[1]) for r in w["out"]),
                )
        steps.append(
            Step(
                activated=frozenset(rec["activated"]),
                actions={int(p): a for p, a in rec["actions"].items()},
                byz_writes=byz_writes,
            )
        )
    trace = ExecutionTrace(
        initial=init, configs=configs, steps=steps, round_ends=round_ends, stop_reason=stop_reason
    )
    return trace, topo, meta["protocol"]

