"""Command-line front end: runs, parameter sweeps, the exhaustive oracle,
and trace replay.

Scenario files are line-oriented `key value...` text (see README). A run
is a function of its scenario alone: its seed derives every other seed and
it lists every bound checked, so the same file always produces
byte-identical trace and report files; a sweep row is the run of the
scenario its grid point makes, and both take the report's verdict. Exit
codes: 0 all checked bounds hold, 1 a bound failed or the run never reached
a legitimate stable configuration, 2 usage or input errors, 3 inconclusive
(a stability search ran out of budget, and no row failed in a sweep).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import analysis
from .adversary import make_adversary
from .engine import (
    DAEMON_KINDS,
    BoundInputs,
    Configuration,
    Daemon,
    EngineError,
    FairnessError,
    ProcessState,
    Protocol,
    RegisterValue,
    StopCondition,
    check_replay,
    read_trace,
    run,
    write_trace,
)
from . import engine as engine_mod
from .spanning_tree import SS_ST
from .tree_orientation import SS_TO
from .topology import (
    InputError,
    Line,
    Topology,
    TopologyError,
    build_topology,
    correct_diameter,
    load_topology,
    parse_lines,
    random_connected_graph_edges,
    random_tree_edges,
    read_text,
    validate_mode,
)

PROTOCOLS = {"ss-st": SS_ST, "ss-to": SS_TO}

# the exit code of a report's or a sweep's verdict
EXIT_CODES = {"pass": 0, "FAIL": 1, "inconclusive": 3}

# sweep topology kinds: (n, extra_edges, seed) -> edge list
TOPOLOGY_KINDS = {
    "random-tree": lambda n, extra, seed: random_tree_edges(n, seed),
    "random-graph": random_connected_graph_edges,
    "chain": lambda n, extra, seed: [(i, i + 1) for i in range(n - 1)],
    "star": lambda n, extra, seed: [(0, i) for i in range(1, n)],
}

# the integer keys of scenarios and sweep specs that count something, so cannot be
# negative, then the others; `n` and `f` take a list
_COUNTS = ("max_steps", "radius", "expect_min_disruptions", "replications", "extra_edges", "n", "f")
_INTEGERS = ("fairness_bound", "seed", "seed_neighbor", *_COUNTS)
# keys whose first argument is one of a set of choices, with what a choice is called
_CHOICES = {
    "protocol": ("protocol", PROTOCOLS), "daemon": ("daemon kind", DAEMON_KINDS),
    "topology_kind": ("topology kind", TOPOLOGY_KINDS), "init": ("init mode", ("arbitrary", "legitimate", "named")),
}

# key -> (fewest, most arguments); every key but `bounds` may appear once
SCENARIO_KEYS = {
    key: (1, 1)
    for key in "topology protocol daemon fairness_bound seed seed_neighbor max_steps radius expect_min_disruptions".split()
}
SCENARIO_KEYS.update(init=(1, 2), adversary=(1, None), bounds=(0, None))


class ScenarioError(InputError):
    pass


def _value(line: Line):
    """The value of a scenario or sweep-spec line, checked on its line: an integer, or
    for `n` and `f` an integer list, non-negative where it counts something; a
    protocol, daemon or topology kind among its choices; `init` as (mode, file or
    legitimate kind or None), a `named` mode needing its file; `adversary` as (name,
    parameters); the names of `bounds`; else the one argument."""
    key, args = line.key, line.args
    if key in _INTEGERS:
        numbers = line.integers()
        if key in _COUNTS and min(numbers, default=0) < 0:
            line.fail(f"{key} must be non-negative")
        return numbers if key in ("n", "f") else numbers[0]
    if key in _CHOICES and args[0] not in _CHOICES[key][1]:
        line.fail(f"unknown {_CHOICES[key][0]} {args[0]!r}")
    if key == "init":
        if args == ["named"]:
            line.fail("init named needs a file name")
        return args[0], args[1] if len(args) > 1 else None
    if key == "adversary":
        name, *params = args
        for tok in params:
            if "=" not in tok:
                line.fail(f"adversary parameter {tok!r} must be key=value")
        return name, dict(tok.split("=", 1) for tok in params)
    return args if key == "bounds" else args[0]


@dataclass
class Scenario:
    """A scenario's keys as `_value` returns them; `topology_path` holds the `topology` key."""

    topology_path: str
    protocol: str
    daemon: str = "distributed"
    fairness_bound: Optional[int] = None
    init: tuple[str, Optional[str]] = ("arbitrary", None)
    adversary: tuple[str, dict] = field(default_factory=lambda: ("silent", {}))
    seed: int = 0
    seed_neighbor: Optional[int] = None  # named init files name parents by neighbor position, so pin the order
    max_steps: int = 2000
    radius: int = 0
    bounds: list = field(default_factory=list)
    expect_min_disruptions: int = 10
    base_dir: Path = Path(".")

    def resolved_seeds(self) -> dict[str, int]:
        base = self.seed * 1000
        neighbor = self.seed_neighbor if self.seed_neighbor is not None else base + 4
        return {"daemon": base + 1, "init": base + 2, "adversary": base + 3, "neighbor": neighbor}


def parse_scenario_text(text: str, base_dir: Path) -> Scenario:
    values: dict = {"bounds": []}
    for line in parse_lines(text, "scenario", SCENARIO_KEYS, ScenarioError, repeatable=("bounds",)):
        values[line.key] = values["bounds"] + _value(line) if line.key == "bounds" else _value(line)
    for key in ("topology", "protocol"):
        if key not in values:
            raise ScenarioError(f"scenario missing required key {key!r}")
    return Scenario(values.pop("topology"), base_dir=base_dir, **values)


def load_scenario(path: str) -> Scenario:
    return parse_scenario_text(read_text(path), Path(path).parent)


# ---------------------------------------------------------------------------
# named initial configurations: `state pid prnt level` and
# `reg writer reader prnt-bit level` lines

def read_config_file(path: str, topo: Topology, protocol: Protocol) -> Configuration:
    states: dict[int, ProcessState] = {}
    regs: dict[tuple[int, int], RegisterValue] = {}
    text = read_text(path)
    for line in parse_lines(text, "init file", {"state": (3, 3), "reg": (4, 4)}, ScenarioError, ("state", "reg")):
        if line.integers()[-1] < 0:  # the level ends both kinds of line
            line.fail(f"{line.key} level must be non-negative, got {line.args[-1]}")
        if line.key == "state":
            pid, prnt, level = line.integers()
            if pid in states:
                line.fail(f"second state for process {pid}")
            if 0 <= pid < topo.n and not protocol.prnt_min <= prnt <= topo.degree(pid):
                line.fail(f"process {pid} needs prnt in {protocol.prnt_min}..{topo.degree(pid)}, got {prnt}")
            states[pid] = ProcessState(prnt, level)
        else:
            writer, reader, bit, level = line.integers()
            if (writer, reader) in regs:
                line.fail(f"second reg for link {writer} -> {reader}")
            if bit not in (0, 1):
                line.fail(f"reg parent bit must be 0 or 1, got {bit}")
            regs[(writer, reader)] = RegisterValue(bool(bit), level)
    if set(states) != set(range(topo.n)):
        raise ScenarioError("config file must give a state for every process")
    # register slots hold each process's out-links in its neighbor order, process by process
    links = [(v, u) for v in range(topo.n) for u in topo.neighbor_order[v]]
    wrong = sorted(set(regs).symmetric_difference(links))
    if wrong:
        raise ScenarioError(f"config file must give a reg for each link and for no other pair: {wrong}")
    return Configuration(tuple(states[v] for v in range(topo.n)), tuple(regs[link] for link in links))


def write_config_file(path: str, topo: Topology, config: Configuration, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for v in range(topo.n):
            st = config.states[v]
            fh.write(f"state {v} {st.prnt} {st.level}\n")
        for v in range(topo.n):
            for u, slot in zip(topo.neighbor_order[v], topo.out_slot[v]):
                r = config.registers[slot]
                fh.write(f"reg {v} {u} {int(r.prnt)} {r.level}\n")


def _corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def resolve_named_init(name: str, base_dir: Path) -> Path:
    for cand in (base_dir / name, _corpus_dir() / name, _corpus_dir() / f"{name}.init"):
        if cand.exists():
            return cand
    raise ScenarioError(f"named initial configuration {name!r} not found")


# ---------------------------------------------------------------------------
# bound limits

def bound_limits(names: list[str], topo: Topology, sc: Scenario) -> dict[str, tuple[int, str]]:
    """(limit, kind) per named bound on `topo`: a bound of the scenario's
    protocol as an upper limit, or the scenario's `expect_min_disruptions`
    as the lower limit of `min_disruptions`."""
    protocol, inputs = PROTOCOLS[sc.protocol], BoundInputs.of(topo)
    formulas = {bound.name: bound.limit for bound in protocol.bounds}
    unknown = set(names) - set(formulas) - {analysis.MIN_DISRUPTIONS}
    if unknown:
        raise ScenarioError(f"not {protocol.name} bounds: {' '.join(sorted(unknown))}")
    # a formula may refuse a topology (`to_disruptions` needs one Byzantine process), so only named ones run
    return {
        name: (sc.expect_min_disruptions, "min") if name == analysis.MIN_DISRUPTIONS else (formulas[name](inputs), "max")
        for name in names
    }


# ---------------------------------------------------------------------------
# subcommands

def _topology(sc: Scenario) -> Topology:
    path, seed = str(sc.base_dir / sc.topology_path), sc.resolved_seeds()["neighbor"]
    return load_topology(path, neighbor_seed=seed, mode=sc.protocol)


def _players(sc: Scenario, topo: Topology):
    """The protocol, daemon, adversary and initial configuration of `sc` on `topo`."""
    protocol = PROTOCOLS[sc.protocol]
    seeds = sc.resolved_seeds()
    fairness = sc.fairness_bound if sc.fairness_bound is not None else 2 * topo.n
    daemon = Daemon(kind=sc.daemon, fairness_bound=fairness, rng_seed=seeds["daemon"])
    adversary = make_adversary(*sc.adversary, seeds["adversary"], topo, protocol)
    adversary.check_daemon(daemon)
    mode, arg = sc.init
    if mode == "arbitrary":
        init = engine_mod.arbitrary_configuration(topo, protocol, seeds["init"])
    elif mode == "legitimate":  # the protocol refuses a kind it does not know
        init = protocol.legitimate_configuration(topo, seeds["init"], arg)
    else:  # named, with its file
        init = read_config_file(str(resolve_named_init(arg, sc.base_dir)), topo, protocol)
    return protocol, daemon, adversary, init


def _verify(sc: Scenario, topo: Topology):
    """Run `sc` on `topo`: the trace and its containment report on the scenario's bounds."""
    protocol, daemon, adversary, init = _players(sc, topo)
    limits = bound_limits(sc.bounds, topo, sc)
    trace = run(topo, protocol, adversary, daemon, init, StopCondition(max_steps=sc.max_steps))
    return trace, analysis.verify_containment(trace, topo, protocol, sc.radius, limits)


def cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    topo = _topology(sc)
    trace, report = _verify(sc, topo)
    text = analysis.render_report(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(str(out / "trace.jsonl"), trace, topo, PROTOCOLS[sc.protocol])
    (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_CODES[report.verdict]


def _sweep_topology(kind: str, n: int, f: int, protocol: Protocol, seed: int, extra: int) -> Topology:
    reason = None
    for attempt in range(50):
        s = seed + 7919 * attempt
        edges = TOPOLOGY_KINDS[kind](n, extra, s)
        try:
            root, byz = protocol.sweep_placement(n, f, random.Random(s))
        except ValueError:  # more Byzantine processes than it may place
            raise ScenarioError(f"{protocol.name} cannot place f={f} Byzantine processes among n={n}") from None
        try:
            return build_topology(edges, root=root, byzantine=byz, neighbor_seed=s, mode=protocol.name)
        except TopologyError as exc:
            reason = exc  # e.g. the Byzantine choice disconnected the correct subgraph; retry
    raise ScenarioError(f"could not build a valid sweep topology: {reason}")


def _sweep_row(job: dict) -> dict:
    """One seeded replication, the scenario of its grid point run on a drawn
    topology; self-contained so replications can run in worker processes."""
    protocol = PROTOCOLS[job["protocol"]]
    topo = _sweep_topology(job["topology_kind"], job["n"], job["f"], protocol, job["seed"], job["extra_edges"])
    sc = Scenario(
        "-", job["protocol"], daemon=job["daemon"], init=job["init"], adversary=job["adversary"], seed=job["seed"],
        max_steps=job["max_steps"], radius=job["radius"], bounds=[b.name for b in protocol.bounds if b.swept(job["f"])],
    )
    _, report = _verify(sc, topo)
    verdict = report.verdict
    return {
        "protocol": job["protocol"],
        "n": job["n"],
        "f": job["f"],
        "adversary": sc.adversary[0],
        "seed": job["seed"],
        "delta": topo.max_degree,
        "d": correct_diameter(topo),
        "rounds": report.stabilization_round,
        "disruptions": report.t_observed,
        "max_changes": report.k_observed,
        **{f"bound_{name}": report.bounds_checked[name].limit for name in sorted(sc.bounds)},
        "pass": verdict if verdict == "inconclusive" else verdict == "pass",
    }


# key -> (fewest, most arguments); every key but `adversary` may appear once
SWEEP_KEYS = {key: (1, 1) for key in "protocol topology_kind init daemon replications seed max_steps radius extra_edges".split()}
SWEEP_KEYS.update(n=(0, None), f=(0, None), adversary=(1, None))


def parse_sweep_text(text: str) -> dict:
    """A sweep spec as its keys' values, defaults filled in; `n` and `f`
    are integer lists, `init` is (mode, None) and `adversary` a list of
    (name, parameters)."""
    spec: dict = {
        "protocol": "ss-to", "topology_kind": "random-tree", "n": [], "f": [0], "adversary": [],
        "replications": 5, "seed": 0, "max_steps": 3000, "radius": 0, "extra_edges": 1,
        "init": ("arbitrary", None), "daemon": "distributed",
    }
    for line in parse_lines(text, "sweep spec", SWEEP_KEYS, ScenarioError, repeatable=("adversary",)):
        spec[line.key] = spec["adversary"] + [_value(line)] if line.key == "adversary" else _value(line)
    spec["adversary"] = spec["adversary"] or [("silent", {})]
    return spec


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    spec = parse_sweep_text(read_text(args.spec))
    # one job per grid point and replication: the spec with that point filled in
    grid = itertools.product(spec["n"], spec["f"], spec["adversary"], range(spec["replications"]))
    jobs = [
        {**spec, "n": n, "f": f, "adversary": adversary, "seed": spec["seed"] + idx}
        for idx, (n, f, adversary, _) in enumerate(grid, 1)
    ]

    # replications are independent; `map` keeps the grid order either way
    if args.jobs > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    for line in _summarize(rows):
        print(line)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_CODES[_worst(rows)]


def _worst(rows) -> str:
    """The verdict of a group of sweep rows: FAIL if a row failed, else
    inconclusive if a row is, else pass."""
    passes = [row["pass"] for row in rows]
    if False in passes:
        return "FAIL"
    return "inconclusive" if "inconclusive" in passes else "pass"


def _summarize(rows) -> list[str]:
    if not rows:
        return ["empty sweep"]
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["protocol"], row["n"], row["f"], row["adversary"]), []).append(row)
    lines = ["protocol n f adversary runs max_rounds max_disruptions max_changes pass"]
    for key in sorted(groups):
        g = groups[key]
        rounds = max((r["rounds"] or 0) for r in g)
        lines.append(
            f"{key[0]} {key[1]} {key[2]} {key[3]} {len(g)} {rounds} "
            f"{max(r['disruptions'] for r in g)} {max(r['max_changes'] for r in g)} "
            f"{_worst(g)}"
        )
    return lines


def cmd_oracle(args) -> int:
    if args.level_bound < 0:
        raise InputError(f"--level-bound must be non-negative, got {args.level_bound}")
    topo = load_topology(args.topology, neighbor_seed=args.neighbor_seed, mode=args.protocol)
    result = analysis.brute_force_verify(topo, PROTOCOLS[args.protocol], args.property, args.level_bound)
    if result.prop == "converges-to":
        verdict = "yes (all initial states in the bounded domain)" if result.converges else "NO"
        print(f"converges: {verdict}")
        if result.counterexample is not None:
            print(f"counterexample states: {[tuple(s) for s in result.counterexample.states]}")
        print(f"states explored: {result.states_explored}")
        return 0 if result.converges else 1
    print(f"anchors: {result.anchors}")
    if result.unbounded_disruptions:
        print("worst disruptions: UNBOUNDED")
        return 1
    print(f"worst disruptions: {result.worst_disruptions}")
    if result.unbounded_changes:
        print("worst per-process changes: UNBOUNDED")
        return 1
    print(f"worst per-process changes: {result.worst_per_process}")
    print(f"game states: {result.states_explored}")
    for ids, part in result.parts:  # a composed answer: one line per branch of the Byzantine process
        branch = [v for v in ids if v not in topo.byzantine]
        y = next(v for v in branch if not topo.byzantine.isdisjoint(topo.neighbor_order[v]))
        print(
            f"branch {y}: size {len(branch)}, anchors {part.anchors}, worst disruptions {part.worst_disruptions},"
            f" worst per-process changes {part.worst_per_process}"
        )
    return 0


# what a trace file of the wrong shape or value types raises while it is read or re-executed
_MALFORMED_TRACE = (ValueError, LookupError, TypeError, AttributeError, RecursionError)


def cmd_replay(args) -> int:
    try:
        trace, topo, protocol_name = read_trace(args.trace)
        protocol = PROTOCOLS.get(protocol_name)
        if protocol is not None:
            validate_mode(topo, protocol.name)
            check_replay(trace, topo, protocol)
    except EngineError as exc:
        print(f"replay FAILED: {exc}")
        return 1
    except _MALFORMED_TRACE as exc:
        if str(exc).startswith(f"{args.trace}: "):
            raise  # `read_text` named the file already
        raise ScenarioError(f"malformed trace file {args.trace}: {type(exc).__name__}: {exc}") from None
    if protocol is None:
        raise ScenarioError(f"trace names unknown protocol {protocol_name!r}")
    print(f"replay ok: {len(trace.steps)} steps, stop={trace.stop_reason}, rounds={len(trace.round_ends)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="strongstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and check its bounds")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of seeded runs, aggregated to CSV")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes for replications")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exhaustive small-instance verdicts")
    p_oracle.add_argument("--topology", required=True)
    p_oracle.add_argument("--protocol", choices=sorted(PROTOCOLS), required=True)
    p_oracle.add_argument("--property", choices=["converges-to", "worst-disruptions"], default="worst-disruptions")
    p_oracle.add_argument("--level-bound", type=int, default=3)
    p_oracle.add_argument("--neighbor-seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_replay = sub.add_parser("replay", help="re-execute a trace file and verify it")
    p_replay.add_argument("trace")
    p_replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FairnessError, analysis.OracleCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
