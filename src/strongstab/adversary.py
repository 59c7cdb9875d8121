"""Pluggable Byzantine strategies.

A strategy is omniscient (it may read the whole configuration) but the
engine only ever applies its output to the Byzantine process's own state
and output registers. `act` returns a LocalEffect or None for "no change this
activation"; `pledges_silence` tells the engine the strategy will never act
again, which is what lets runs with Byzantine processes reach quiescence.
"""

from __future__ import annotations

import random
from typing import Optional

from . import analysis
from .engine import Configuration, Daemon, Kernel, LocalEffect, ProcessState, Protocol, RegisterValue
from .topology import InputError, Topology, TopologyError


class Adversary:
    name = "adversary"
    # the integer parameters the strategy reads, each an attribute: key -> (default, least value)
    accepts: dict[str, tuple[Optional[int], int]] = {}
    schedules = False  # whether it plays through `propose_activation`, which needs a central daemon

    def __init__(self, params: dict, seed: int, topo: Topology, protocol: Protocol):
        self.rng = random.Random(seed)
        self.topo = topo
        self.protocol = protocol
        for key, (default, least) in self.accepts.items():
            value = params.get(key, default)
            try:
                valid = value is None or int(value) >= least
            except ValueError:
                valid = False
            if not valid:
                raise InputError(f"adversary {self.name} parameter {key}: needs an integer >= {least}, got {value!r}")
            setattr(self, key, None if value is None else int(value))

    def check_daemon(self, daemon: Daemon) -> None:
        """InputError when the strategy schedules but `daemon` is not central."""
        if self.schedules and daemon.kind != "central":
            raise InputError(f"adversary {self.name} needs a central daemon (daemon central)")

    def act(self, config: Configuration, topo: Topology, pid: int) -> Optional[LocalEffect]:
        """What activated Byzantine process `pid` writes in `config`: its new state and one
        register per neighbor, or None to leave them as they are."""
        raise NotImplementedError

    def pledges_silence(self) -> bool:
        return False

    def propose_activation(self, config: Configuration, topo: Topology, t: int) -> Optional[frozenset[int]]:
        """The activation set wished for step `t`, or None for the daemon's own pick; asked every step."""
        return None

    def _uniform_write(self, state: ProcessState, reg: RegisterValue, degree: int) -> LocalEffect:
        return LocalEffect(state=state, out_regs=(reg,) * degree)


class SilentAdversary(Adversary):
    """Byzantine processes that behave like crashed-correct ones: no writes."""

    name = "silent"

    def act(self, config, topo, pid):
        return None

    def pledges_silence(self):
        return True


class FakeRootAdversary(Adversary):
    """Advertise a permanent root: state (0, 0), every register (false, 0).

    One write per Byzantine process suffices; the registers persist, so the
    strategy pledges silence once all its processes have spoken.
    """

    name = "fake-root"

    def __init__(self, params, seed, topo, protocol):
        super().__init__(params, seed, topo, protocol)
        self._done: set[int] = set()

    def act(self, config, topo, pid):
        self._done.add(pid)
        return self._uniform_write(ProcessState(0, 0), RegisterValue(False, 0), topo.degree(pid))

    def pledges_silence(self):
        return self._done >= self.topo.byzantine


class LevelInflationAdversary(Adversary):
    """Raise the advertised level by `step` on every activation.

    Against the orientation protocol this pulls the root link toward the
    Byzantine process but can never push it away.
    """

    name = "level-inflation"
    accepts = {"step": (1, 1)}

    def act(self, config, topo, pid):
        level = config.states[pid].level + self.step
        return self._uniform_write(
            ProcessState(config.states[pid].prnt, level), RegisterValue(False, level), topo.degree(pid)
        )


class OscillateAdversary(Adversary):
    """Alternate between courting neighbors with a low level and repelling
    them with a high one, switching every `period` activations. A finite
    `cycles` makes the script exhaust itself (and pledge silence)."""

    name = "oscillate"
    accepts = {"period": (1, 1), "cycles": (None, 0)}

    def __init__(self, params, seed, topo, protocol):
        super().__init__(params, seed, topo, protocol)
        self._count = 0
        self._high = {}

    def _exhausted(self) -> bool:
        return self.cycles is not None and self._count >= 2 * self.period * self.cycles

    def act(self, config, topo, pid):
        if self._exhausted():
            return None
        phase = (self._count // self.period) % 2
        if self._count % self.period == 0:
            self._high[phase] = self.rng.randint(topo.n, 2 * topo.n)
        self._count += 1
        level = 0 if phase == 0 else self._high[phase]
        return self._uniform_write(ProcessState(0, level), RegisterValue(False, level), topo.degree(pid))

    def pledges_silence(self):
        return self._exhausted()


class ChainReplayAdversary(Adversary):
    """Both endpoints of a chain are Byzantine; whenever the interior has
    settled, the endpoint opposite the last perturbation advertises a level
    above everything in sight. Each re-orientation wave makes every interior
    process change its parent, so disruptions accumulate without bound.
    `reversals` caps the script for finite demonstrations."""

    name = "chain-replay"
    accepts = {"step": (1, 1), "reversals": (None, 0)}

    def __init__(self, params, seed, topo, protocol):
        super().__init__(params, seed, topo, protocol)
        self._endpoints = sorted(v for v in range(topo.n) if topo.degree(v) == 1)
        if (
            not topo.is_tree()
            or len(self._endpoints) != 2
            or topo.byzantine != set(self._endpoints)
        ):
            raise TopologyError("chain-replay needs a chain with Byzantine endpoints")
        self._writer = self._endpoints[0]
        self._count = 0
        self._kernel = Kernel(topo, protocol)

    def _exhausted(self) -> bool:
        return self.reversals is not None and self._count >= self.reversals

    def act(self, config, topo, pid):
        if self._exhausted() or pid != self._writer:
            return None
        if not self._kernel.quiescent(config):
            return None  # wait out the current wave
        level = max(config.states[v].level for v in topo.correct) + self.step
        self._writer = self._endpoints[1] if pid == self._endpoints[0] else self._endpoints[0]
        self._count += 1
        return self._uniform_write(ProcessState(1, level), RegisterValue(False, level), topo.degree(pid))

    def pledges_silence(self):
        return self._exhausted()


class MaxDamageAdversary(Adversary):
    """Exhaustive worst-case play for small instances.

    On the first scheduling request it runs the brute-force game search from
    the run's initial configuration (which must be legitimate and stable)
    and then drives the run along the disruption-maximizing play. Needs a
    central daemon (`check_daemon` refuses any other) with a fairness bound
    longer than the script.
    """

    name = "max-damage"
    accepts = {"level_bound": (3, 0), "radius": (0, 0)}  # level_bound bounds the game's register values
    schedules = True

    def __init__(self, params, seed, topo, protocol):
        super().__init__(params, seed, topo, protocol)
        self._script: Optional[list] = None
        self._i = 0
        self._pending: dict[int, LocalEffect] = {}

    def _build(self, config: Configuration) -> None:
        worst, play = analysis.best_disruption_play(
            self.topo, self.protocol, config, self.level_bound, radius=self.radius
        )
        self.worst = worst
        self._script = play

    def propose_activation(self, config, topo, t):
        if self._script is None:
            self._build(config)
        if self._i >= len(self._script):
            return None
        pid, write = self._script[self._i]
        self._i += 1
        if write is not None:
            self._pending[pid] = write
        return frozenset({pid})

    def act(self, config, topo, pid):
        if pid in self._pending:
            return self._pending.pop(pid)
        return None

    def pledges_silence(self):
        return self._script is not None and self._i >= len(self._script) and not self._pending


STRATEGIES = {
    cls.name: cls
    for cls in (
        SilentAdversary,
        FakeRootAdversary,
        LevelInflationAdversary,
        OscillateAdversary,
        ChainReplayAdversary,
        MaxDamageAdversary,
    )
}


def make_adversary(name: str, params: dict, seed: int, topo: Topology, protocol: Protocol) -> Adversary:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise InputError(f"unknown adversary {name!r}; known: {sorted(STRATEGIES)}") from None
    unknown = sorted(set(params) - set(cls.accepts))
    if unknown:
        raise InputError(f"adversary {name} has no parameter {unknown[0]!r}; it takes: {' '.join(cls.accepts) or 'none'}")
    return cls(params, seed, topo, protocol)
