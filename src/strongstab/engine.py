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

One step kernel serves every caller: each run, audit pass, stability search
and oracle query owns a `Kernel`, which fires correct processes memoized per
(role, local view). Guards are evaluated only in `Kernel.fire`, and effects
are written only through `apply_effects`. A configuration advances through
`Kernel.step` (runs and replays) and `Kernel.moves` (single-process moves, for
the stability search). The oracle walks integer codes of configurations
instead: the first time a process meets a view, it fires it through the
kernel and keeps the move as a code delta (`analysis._Coding`).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .topology import InputError, Topology, build_topology, correct_diameter, read_text


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
    """What one process writes in a step: its new state and its out-registers,
    in neighbor order. A correct action's effect and a Byzantine write alike."""

    state: ProcessState
    out_regs: tuple[RegisterValue, ...]


class BoundInputs(NamedTuple):
    """What a bound formula reads off a topology: n, the number f of Byzantine
    processes, the maximum degree Δ and the correct subgraph's diameter d
    (n when `correct_diameter` is None)."""

    topo: Topology
    n: int
    f: int
    delta: int
    d: int

    @classmethod
    def of(cls, topo: Topology) -> BoundInputs:
        d = correct_diameter(topo)
        return cls(topo, topo.n, len(topo.byzantine), topo.max_degree, topo.n if d is None else d)


@dataclass(frozen=True)
class Bound:
    """A containment bound of a protocol's theorems: `limit` caps the
    `observable`, which is 'disruptions' (their count), 'changes' (the most
    O-variable changes of one process) or 'rounds' (the stabilization
    round); `swept(f)` says whether sweeps with f Byzantine processes check it."""

    name: str
    observable: str
    limit: Callable[[BoundInputs], int]
    swept: Callable[[int], bool] = lambda f: True


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
      (whether it reads in-registers' parent bits) and `bounds` (the
      `Bound` records of its theorems);
    - `actions`, each role's guarded actions in priority order, each
      guarded by its own paper predicate: `fire` takes the first whose
      guard holds, so no guard repeats the negations of those before it;
      `spec`, the per-process specification; `legitimate_set`, the bounded
      legitimate set the oracle converges to and anchors in; `fast_stable`,
      a sufficient test for stability beyond quiescence, read only by the
      runs' budgeted stability search (which settles a quiescent
      configuration at once); and `legitimate_configuration`,
      which refuses a kind it does not know with InputError;
    - `sweep_placement` and `pieces` where the defaults do not fit.
    """

    name: str = ""
    o_variables: tuple[str, ...] = ()
    prnt_min: int = 0
    reads_parent_bit: bool = True
    bounds: tuple[Bound, ...] = ()

    def role_of(self, topo: Topology, pid: int) -> str:
        return "root" if topo.root == pid else "node"

    def actions(self, role: str) -> tuple[GuardedAction, ...]:
        raise NotImplementedError

    def spec(self, v: int, config: Configuration, topo: Topology) -> bool:
        raise NotImplementedError

    def legitimate_set(self, topo: Topology, level_bound: int) -> Iterator[Configuration]:
        """Each legitimate configuration with levels up to `level_bound`, once: correct registers
        in sync, Byzantine states pinned to (prnt_min, 0), Byzantine registers from `byzantine_writes`."""
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

    def pieces(self, topo: Topology) -> tuple[tuple[Topology, tuple[int, ...]], ...]:
        """Sub-instances whose worst-disruptions answers compose into `topo`'s: disruptions
        add up and per-process changes take the most. Each comes with the global id of
        every local id. By default `topo` itself is the one piece."""
        return ((topo, tuple(range(topo.n))),)

    def sweep_placement(self, n: int, f: int, rng: random.Random) -> tuple[Optional[int], list[int]]:
        """Root and Byzantine processes of a sweep topology on `n` processes."""
        return None, (rng.sample(range(n), f) if f else [])

    def arbitrary_state(self, rng: random.Random, degree: int, n: int) -> ProcessState:
        return ProcessState(prnt=rng.randint(self.prnt_min, degree), level=rng.randint(0, 2 * n))

    def state_domain(self, degree: int, level_bound: int) -> list[ProcessState]:
        """Every state of a process of this degree with levels up to `level_bound`."""
        return [ProcessState(p, l) for p in range(self.prnt_min, degree + 1) for l in range(level_bound + 1)]

    def register_domain(self, level_bound: int, current: RegisterValue) -> list[RegisterValue]:
        """Byzantine writes to a register holding `current`: every level up to
        `level_bound`, with both parent bits only when the protocol reads them."""
        bits = (False, True) if self.reads_parent_bit else (current.prnt,)
        return [RegisterValue(bit, l) for bit in bits for l in range(level_bound + 1)]


@dataclass(frozen=True)
class Step:
    activated: frozenset[int]
    actions: dict[int, Optional[str]]
    byz_writes: dict[int, Optional[LocalEffect]]


@dataclass
class ExecutionTrace:
    """A run: `configs[0]` is its start and `configs[i]` the configuration after
    step i, `steps[i-1]`; `round_ends` are the 1-based steps that end a round."""

    configs: list[Configuration]
    steps: list[Step]
    round_ends: list[int]
    stop_reason: str = ""


DAEMON_KINDS = ("distributed", "central")
STOP_REASONS = ("quiescent", "max_steps", "predicate")  # why `run` stopped, as a trace's end record says


@dataclass
class Daemon:
    """Scheduler: central activates one process per step, distributed any
    nonempty subset. Weak fairness is constructive: a correct process idle
    for `fairness_bound` steps is force-activated. A central daemon activates
    the correct process due first whenever k of them are due within the next
    k steps, so it keeps every bound of at least the number of correct
    processes. An activation set the adversary proposes is honored, topped up
    with forced processes (set aside by a central daemon that must activate
    a process due); only a scheduling strategy proposes one.
    """

    kind: str = "distributed"
    fairness_bound: int = 8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DAEMON_KINDS:
            raise InputError(f"unknown daemon kind {self.kind!r}")
        if self.fairness_bound < 1:
            raise InputError("fairness bound must be positive")


@dataclass
class StopCondition:
    max_steps: int
    predicate: Optional[Callable[[Configuration], bool]] = None


class Kernel:
    """The step kernel of one run, audit pass, stability search or oracle query.
    Guards read only the local view and the role picks the actions, so `memo[role]`
    maps a view's (state, in_regs, out_regs) to `fire`'s result for the kernel's life.
    `step` and `moves` advance configurations; the oracle's coded moves call `fire`.
    `step` holds the model's step rules, so runs and the replay audit enforce the same."""

    def __init__(self, topo: Topology, protocol: Protocol):
        self.topo = topo
        self.correct = sorted(topo.correct)
        self.memo: dict[str, dict] = {}
        self._access = [
            (degree, in_regs, out_regs, protocol.actions(role), self.memo.setdefault(role, {}))
            for v, (degree, in_regs, out_regs) in enumerate(topo.register_access)
            for role in [protocol.role_of(topo, v)]
        ]

    def fire(self, config: Configuration, v: int) -> Optional[tuple[str, LocalEffect]]:
        """The label and effect of correct process `v`'s first action, in priority order,
        whose guard holds in `config`, or None. A guard that raises memoizes nothing."""
        degree, in_regs, out_regs, actions, memo = self._access[v]
        regs = config.registers
        key = (config.states[v], in_regs(regs), regs[out_regs])
        fired = memo.get(key, memo)
        if fired is memo:
            view = LocalView(key[0], degree, key[1], key[2])
            fired = None
            for action in actions:
                if action.guard(view):
                    fired = action.label, action.effect(view)
                    break
            memo[key] = fired
        return fired

    def quiescent(self, config: Configuration) -> bool:
        """Whether no correct process has an enabled action in `config`."""
        return all(self.fire(config, v) is None for v in self.correct)

    def step(self, config: Configuration, activated: frozenset[int], byz_writes: dict) -> tuple[dict, Configuration]:
        """One step from `config`: the label each activated correct process fires, in id order,
        and the merge of their effects, computed against `config`, with the non-None `byz_writes`.
        EngineError when `activated` is empty or a Byzantine write names a correct or
        non-activated process."""
        if not activated:
            raise EngineError("activated set must be nonempty")
        byzantine, actions, effects = self.topo.byzantine, {}, []
        for pid, write in byz_writes.items():
            if pid not in byzantine:
                raise EngineError(f"byzantine write recorded for correct process {pid}")
            if pid not in activated:
                raise EngineError(f"byzantine write for non-activated process {pid}")
            if write is not None:
                effects.append((pid, write))
        for v in sorted(activated):
            if v not in byzantine:
                fired = self.fire(config, v)
                actions[v] = fired and fired[0]
                if fired:
                    effects.append((v, fired[1]))
        return actions, apply_effects(config, self.topo, effects)

    def moves(self, config: Configuration) -> Iterator[tuple[int, LocalEffect, Configuration]]:
        """(v, effect, next configuration) per correct `v` whose action fires when `v` moves alone, in id order."""
        for v in self.correct:
            fired = self.fire(config, v)
            if fired is not None:
                yield v, fired[1], apply_effects(config, self.topo, [(v, fired[1])])


def apply_effects(
    config: Configuration, topo: Topology, effects: Iterable[tuple[int, LocalEffect]]
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


class _Scheduler:
    def __init__(self, daemon: Daemon, topo: Topology):
        self.daemon = daemon
        self.rng = random.Random(daemon.rng_seed)
        self.last_seen = {v: 0 for v in sorted(topo.correct)}
        self.all_pids = list(range(topo.n))

    def pick(self, t: int, proposal: Optional[frozenset[int]]) -> frozenset[int]:
        bound = self.daemon.fairness_bound
        overdue = t - min(self.last_seen.values(), default=t) >= bound  # rare at the usual bound of 2n
        forced = {v for v, seen in self.last_seen.items() if t - seen >= bound} if overdue else set()
        if self.daemon.kind == "central":
            activated = self._pick_central(t, proposal)
        else:
            activated = self._pick_distributed(forced, proposal)
        for v in activated:
            if v in self.last_seen:
                self.last_seen[v] = t
        # every activated process was just seen (bound >= 1), so only forced ones can be left over
        if forced - activated:
            raise FairnessError(
                f"fairness bound {bound} unsatisfiable at step {t} (kind={self.daemon.kind})"
            )
        return frozenset(activated)

    def _pick_central(self, t: int, proposal: Optional[frozenset[int]]) -> set[int]:
        # a correct process is due by its last activation plus the bound
        bound, seen = self.daemon.fairness_bound, sorted(self.last_seen.values())
        if any(last + bound <= t + k for k, last in enumerate(seen)):
            return {self.rng.choice([v for v, last in self.last_seen.items() if last == seen[0]])}
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
        draw = self.rng.random
        activated = {v for v in self.all_pids if draw() < 0.5} | forced
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
    kernel = Kernel(topo, protocol)
    t = 0
    while True:
        config = configs[-1]
        if stop.predicate is not None and stop.predicate(config):
            stop_reason = "predicate"
            break
        if adversary.pledges_silence() and kernel.quiescent(config):
            stop_reason = "quiescent"
            break
        if t >= stop.max_steps:
            stop_reason = "max_steps"
            break
        t += 1
        activated = sched.pick(t, adversary.propose_activation(config, topo, t))
        byz_writes = {pid: adversary.act(config, topo, pid) for pid in sorted(activated & topo.byzantine)}
        actions, after = kernel.step(config, activated, byz_writes)
        configs.append(after)
        steps.append(Step(activated=activated, actions=actions, byz_writes=byz_writes))
    trace = ExecutionTrace(configs=configs, steps=steps, round_ends=[], stop_reason=stop_reason)
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
    return tuple([RegisterValue(k == prnt, level) for k in range(1, degree + 1)])


def registers_stale(state: ProcessState, out_regs: Sequence[RegisterValue]) -> bool:
    """Whether some register of `out_regs` differs from what `out_registers`
    writes there for `state`."""
    prnt, level = state
    for k, reg in enumerate(out_regs, 1):
        if reg != (k == prnt, level):
            return True
    return False


def out_of_sync(view: LocalView) -> bool:
    """The register-sync guard: out-registers disagree with the local state
    (needs a valid parent)."""
    if not 1 <= view.state.prnt <= view.degree:
        raise ValueError("out_of_sync needs prnt in 1..degree")
    return registers_stale(view.state, view.out_regs)


def resync(view: LocalView) -> LocalEffect:
    """The register-sync effect: keep the state, rewrite the out-registers."""
    state = view.state
    return LocalEffect(state, out_registers(state.prnt, state.level, view.degree))


def consistent_registers(
    topo: Topology, states: Sequence[ProcessState], writes: Optional[dict[int, RegisterValue]] = None
) -> tuple[RegisterValue, ...]:
    """Registers every process would write for its own state, except in the
    slots `writes` sets."""
    registers: list[RegisterValue] = [RegisterValue(False, 0)] * topo.num_registers
    for v, slots in enumerate(topo.out_slot):
        registers[slots[0] : slots[-1] + 1] = out_registers(states[v].prnt, states[v].level, len(slots))
    for slot, value in (writes or {}).items():
        registers[slot] = value
    return tuple(registers)


def byzantine_writes(topo: Topology, protocol: Protocol, level_bound: int) -> list[dict[int, RegisterValue]]:
    """Every assignment of `register_domain` values to the Byzantine out-registers, by slot."""
    slots = [slot for b in sorted(topo.byzantine) for slot in topo.out_slot[b]]
    values = protocol.register_domain(level_bound, RegisterValue(False, 0))
    return [dict(zip(slots, combo)) for combo in itertools.product(values, repeat=len(slots))]


# ---------------------------------------------------------------------------
# machine-checked execution-model invariants (used by tests on every trace)
#
# check_trace runs two audits, and `strongstab replay` runs the first:
# - replay, one pass: each step, numbered from 1 as in the trace file,
#   re-executed from its recorded before-configuration, finds
#   the recorded action first enabled at every activated correct process
#   (priority), and the recorded after-configuration as the merge of effects
#   computed against the before-configuration (simultaneity). A replayed step
#   writes only its activated processes' states and out-registers, so a trace
#   that replays is local too; a mismatch is first diagnosed for locality.
#   Then the recorded round ends must be the rounds the steps complete, and a
#   trace that stops quiescent must leave no correct process enabled;
# - fairness: no correct process idles for `bound` consecutive steps.

def _check_step_locality(i: int, step: Step, before: Configuration, after: Configuration, topo: Topology) -> None:
    """Step `i` changes only its activated processes' states and their out-registers."""
    for pid in itertools.compress(range(topo.n), map(ne, before.states, after.states)):
        if pid not in step.activated:
            raise EngineError(f"step {i}: non-activated process {pid} changed state")
    changed = list(itertools.compress(range(topo.num_registers), map(ne, before.registers, after.registers)))
    if changed:
        allowed_slots = {s for pid in step.activated for s in topo.out_slot[pid]}
        for slot in changed:
            if slot not in allowed_slots:
                raise EngineError(f"step {i}: register {slot} changed outside activated set")


def check_locality(trace: ExecutionTrace, topo: Topology) -> None:
    for i, step in enumerate(trace.steps, 1):
        _check_step_locality(i, step, trace.configs[i - 1], trace.configs[i], topo)


def check_replay(trace: ExecutionTrace, topo: Topology, protocol: Protocol) -> None:
    """Guards, priority, simultaneity, locality and replay determinism in one pass, then
    the recorded round ends and a quiescent stop against what the steps replayed."""
    kernel, configs = Kernel(topo, protocol), trace.configs
    _check_shape(topo, configs[0])  # every replayed configuration keeps this shape
    for i, step in enumerate(trace.steps, 1):
        try:
            actions, after = kernel.step(configs[i - 1], step.activated, step.byz_writes)
            for pid, label in actions.items():
                recorded = step.actions.get(pid)
                if label != recorded:
                    raise EngineError(f"step records action {recorded!r} for process {pid}, but {label!r} is enabled")
        except EngineError as exc:
            raise EngineError(f"step {i}: {exc}") from None
        if after != configs[i]:
            _check_step_locality(i, step, configs[i - 1], configs[i], topo)
            raise EngineError(f"step {i}: recorded result differs from the merged stale-read result")
    rounds = round_boundaries(trace, topo.correct)
    if trace.round_ends != rounds:
        raise EngineError(f"recorded round_ends differ from the {len(rounds)} rounds the steps complete")
    if trace.stop_reason == "quiescent" and not kernel.quiescent(configs[-1]):
        raise EngineError("trace stops quiescent, but a correct process is enabled in its last configuration")


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
    check_replay(trace, topo, protocol)
    check_fairness(trace, topo.correct, fairness_bound)


# ---------------------------------------------------------------------------
# trace files: one JSON record per line

# records hold no cycles; json copies a NamedTuple to a list more slowly than `list` does
_dumps = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class _JsonText(dict):
    """The JSON text of each value looked up, encoded on its first lookup; values
    that compare equal share one text, which holds for states of plain ints."""

    def __missing__(self, value) -> str:
        text = self[value] = _dumps(list(value))
        return text


def write_trace(path: str, trace: ExecutionTrace, topo: Topology, protocol: Protocol) -> None:
    def reg(r: RegisterValue) -> list:
        return [int(r.prnt), r.level]

    state_json, slots = _JsonText().__getitem__, range(topo.num_registers)
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
        fh.write(_dumps(meta) + "\n")
        init = {
            "type": "init",
            "states": [list(s) for s in trace.configs[0].states],
            "registers": [reg(r) for r in trace.configs[0].registers],
        }
        fh.write(_dumps(init) + "\n")
        for i, step in enumerate(trace.steps):
            before, after = trace.configs[i], trace.configs[i + 1]
            changed = itertools.compress(slots, map(ne, before.registers, after.registers))
            # the keys that sort before "states"; sort_keys orders the process ids as strings
            head = _dumps({
                "i": i + 1,
                "activated": sorted(step.activated),
                "actions": dict(zip(map(str, step.actions), step.actions.values())),
                "byz": {
                    str(p): None if w is None else {"state": list(w.state), "out": [reg(r) for r in w.out_regs]}
                    for p, w in step.byz_writes.items()
                },
                "reg_diff": {str(slot): reg(after.registers[slot]) for slot in changed},
            })
            states = ", ".join(map(state_json, after.states))
            fh.write(f'{head[:-1]}, "states": [{states}], "type": "step"}}\n')
        tail = {"type": "end", "stop_reason": trace.stop_reason, "round_ends": trace.round_ends}
        fh.write(_dumps(tail) + "\n")


def _plain_ints(value, depth: int) -> bool:
    """Whether `value` is an int, bools excluded, or `depth` lists deep holds only such ints."""
    if depth == 0:
        return type(value) is int
    return type(value) is list and all(_plain_ints(x, depth - 1) for x in value)


def read_trace(path: str) -> tuple[ExecutionTrace, Topology, str]:
    """Rebuild a trace and its topology from a trace file: a meta record, an
    init record, one record per step and one end record, in that order."""
    records = [json.loads(line) for line in read_text(path).splitlines() if line.strip()]
    meta = records[0] if records else {}
    if meta.get("type") != "meta":
        raise ValueError("trace file missing meta record")
    # each meta value that names processes, with how many lists deep its ints sit
    for name, depth in (("n", 0), ("root", 0), ("byz", 1), ("edges", 2), ("neighbor_order", 2)):
        if not (name == "root" and meta[name] is None or _plain_ints(meta[name], depth)):
            raise ValueError(f"meta {name} {meta[name]!r} holds something other than plain ints")
    topo = build_topology(
        [tuple(e) for e in meta["edges"]], root=meta["root"], byzantine=meta["byz"], neighbor_order=meta["neighbor_order"]
    )
    if meta["n"] != topo.n:
        raise ValueError(f"meta record says n={meta['n']!r} but the edges span {topo.n} processes")
    *step_recs, end = records[2:] or [{}]
    if end.get("type") != "end" or any(rec["type"] == "end" for rec in step_recs):
        raise ValueError("trace file needs exactly one end record, as its last line")
    if end["stop_reason"] not in STOP_REASONS:
        raise ValueError(f"stop_reason {end['stop_reason']!r} is not one of {', '.join(STOP_REASONS)}")
    if not _plain_ints(end["round_ends"], 1):
        raise ValueError(f"round_ends {end['round_ends']!r} is not a list of ints")

    def pair(value, what: str, bit: bool) -> list:  # a state [int, int] or, with `bit`, a register [0|1, int]
        if not (_plain_ints(value, 1) and len(value) == 2) or bit and value[0] not in (0, 1):
            raise ValueError(f"{what} {value!r} is not [{'0|1' if bit else 'int'}, int]")
        return value

    def reg(r, what: str) -> RegisterValue:
        prnt, level = pair(r, what, True)
        return RegisterValue(bool(prnt), level)

    def state(s, what: str) -> ProcessState:
        return ProcessState(*pair(s, what, False))

    def index(value, count: int, what: str) -> int:  # a process id or register slot, or as an object key its decimal
        number = int(value) if type(value) is str else value  # a negative one would count from the end
        if type(number) is not int or str(number) != str(value) or not 0 <= number < count:
            raise ValueError(f"{what} {value!r} is not an int in 0..{count - 1}")
        return number

    def configuration(what: str, states, registers) -> Configuration:
        if len(states) != topo.n or len(registers) != topo.num_registers:
            raise ValueError(f"{what} has {len(states)} states and {len(registers)} registers, not {topo.n} and {topo.num_registers}")
        return Configuration(tuple(state(s, f"{what} state") for s in states), tuple(registers))

    init = configuration("init", records[1]["states"], [reg(r, "init register") for r in records[1]["registers"]])
    configs, steps = [init], []
    for i, rec in enumerate(step_recs, 1):
        if type(rec.get("i")) is not int or rec["i"] != i:
            raise ValueError(f"step record {i} says i={rec.get('i')!r}")
        registers = list(configs[-1].registers)
        for slot, val in rec["reg_diff"].items():
            registers[index(slot, topo.num_registers, f"step {i}: register slot")] = reg(val, f"step {i}: register")
        configs.append(configuration(f"step {i}", rec["states"], registers))
        byz_writes = {
            index(pid, topo.n, f"step {i}: Byzantine id"): None if w is None else LocalEffect(
                state(w["state"], f"step {i}: Byzantine state"), tuple(reg(r, f"step {i}: Byzantine register") for r in w["out"])
            )
            for pid, w in rec["byz"].items()
        }
        for pid, w in byz_writes.items():
            if w is not None and len(w.out_regs) != topo.degree(pid):
                raise ValueError(f"step {i}: Byzantine process {pid} writes {len(w.out_regs)} registers, not {topo.degree(pid)}")
        actions = {index(p, topo.n, f"step {i}: acting id"): a for p, a in rec["actions"].items()}
        activated = frozenset(index(v, topo.n, f"step {i}: activated process") for v in rec["activated"])
        if not activated:
            raise ValueError(f"step {i}: activates no process")
        owners = {"actions": (actions, activated - topo.byzantine), "byz": (byz_writes, activated & topo.byzantine)}
        for what, (recorded, expected) in owners.items():
            if recorded.keys() != expected:
                raise ValueError(f"step {i}: {what} names {sorted(recorded)}, not the activated {sorted(expected)}")
        steps.append(Step(activated, actions, byz_writes))
    return ExecutionTrace(configs, steps, end["round_ends"], end["stop_reason"]), topo, meta["protocol"]
