"""Command-line front end: runs, parameter sweeps, the exhaustive oracle,
and trace replay.

Scenario files are line-oriented `key value...` text (see README). A
scenario pins every seed, so the same file always produces byte-identical
trace and report files. Exit codes: 0 all checked bounds hold, 1 a bound
failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import analysis
from .adversary import make_adversary
from .engine import (
    Configuration,
    Daemon,
    EngineError,
    ProcessState,
    Protocol,
    RegisterValue,
    StopCondition,
    check_locality,
    check_replay,
    read_trace,
    run,
    write_trace,
)
from . import engine as engine_mod
from .spanning_tree import SS_ST
from .tree_orientation import SS_TO
from .topology import (
    Topology,
    TopologyError,
    build_topology,
    correct_metrics,
    load_topology,
    random_connected_graph_edges,
    random_tree_edges,
)

PROTOCOLS = {"ss-st": SS_ST, "ss-to": SS_TO}

SEED_ENV = "STRONGSTAB_SEED"

SCENARIO_KEYS = frozenset(
    "topology protocol daemon hostile fairness_bound init adversary seed seed_daemon seed_init"
    " seed_adversary seed_neighbor max_steps radius bounds expect_min_disruptions".split()
)


class ScenarioError(ValueError):
    pass


def _integer(source: str, key: str, raw: Optional[str]) -> Optional[int]:
    try:
        return None if raw is None else int(raw)
    except ValueError:
        raise ScenarioError(f"{source} key {key!r} needs an integer, got {raw!r}") from None


def _adversary_spec(text: str) -> tuple[str, dict]:
    """`name key=value...` into the adversary name and its parameters."""
    name, *params = text.split() or [""]
    for tok in params:
        if "=" not in tok:
            raise ScenarioError(f"adversary parameter {tok!r} must be key=value")
    return name, dict(tok.split("=", 1) for tok in params)


@dataclass
class Scenario:
    topology_path: str
    protocol: str
    daemon_kind: str = "distributed"
    hostile: bool = False
    fairness_bound: Optional[int] = None
    init_mode: str = "arbitrary"
    init_arg: Optional[str] = None
    adversary: str = "silent"
    adversary_params: dict = field(default_factory=dict)
    seed: int = 0
    seed_daemon: Optional[int] = None
    seed_init: Optional[int] = None
    seed_adversary: Optional[int] = None
    seed_neighbor: Optional[int] = None
    max_steps: int = 2000
    radius: int = 0
    bounds: list = field(default_factory=list)
    expect_min_disruptions: int = 10
    base_dir: Path = Path(".")

    def resolved_seeds(self) -> dict[str, int]:
        master = self.seed
        env = os.environ.get(SEED_ENV)
        if env is not None:
            master = int(env)
        return {
            "daemon": self.seed_daemon if self.seed_daemon is not None else master * 1000 + 1,
            "init": self.seed_init if self.seed_init is not None else master * 1000 + 2,
            "adversary": self.seed_adversary if self.seed_adversary is not None else master * 1000 + 3,
            "neighbor": self.seed_neighbor if self.seed_neighbor is not None else master * 1000 + 4,
        }


def parse_scenario_text(text: str, base_dir: Path) -> Scenario:
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] not in SCENARIO_KEYS:
            raise ScenarioError(f"unknown scenario key {parts[0]!r} (line {lineno})")
        values.setdefault(parts[0], []).append(" ".join(parts[1:]))

    def one(key, default=None):
        if key not in values:
            if default is None and key in ("topology", "protocol"):
                raise ScenarioError(f"scenario missing required key {key!r}")
            return default
        if len(values[key]) > 1:
            raise ScenarioError(f"duplicate scenario key {key!r}")
        return values[key][0]

    def integer(key, default=None):
        return _integer("scenario", key, one(key, default))

    sc = Scenario(topology_path=one("topology"), protocol=one("protocol"), base_dir=base_dir)
    if sc.protocol not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {sc.protocol!r}")
    sc.daemon_kind = one("daemon", "distributed")
    sc.hostile = {"true": True, "false": False}.get(one("hostile", "false").lower())
    if sc.hostile is None:
        raise ScenarioError(f"scenario key 'hostile' needs true or false, got {one('hostile')!r}")
    sc.fairness_bound = integer("fairness_bound")
    init = one("init", "arbitrary").split()
    sc.init_mode = init[0]
    sc.init_arg = init[1] if len(init) > 1 else None
    sc.adversary, sc.adversary_params = _adversary_spec(one("adversary", "silent"))
    for key in ("seed", "seed_daemon", "seed_init", "seed_adversary", "seed_neighbor"):
        setattr(sc, key, integer(key, getattr(sc, key)))
    sc.max_steps = integer("max_steps", "2000")
    sc.radius = integer("radius", "0")
    if sc.radius < 0:
        raise ScenarioError("radius must be non-negative")
    sc.expect_min_disruptions = integer("expect_min_disruptions", "10")
    if "bounds" in values:
        for entry in values["bounds"]:
            sc.bounds.extend(entry.split())
    return sc


def load_scenario(path: str) -> Scenario:
    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), p.parent)


# ---------------------------------------------------------------------------
# named initial configurations: `state pid prnt level` and
# `reg writer reader prnt-bit level` lines

def read_config_file(path: str, topo: Topology) -> Configuration:
    states: dict[int, ProcessState] = {}
    regs: dict[tuple[int, int], RegisterValue] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "state":
                    states[int(parts[1])] = ProcessState(int(parts[2]), int(parts[3]))
                elif parts[0] == "reg":
                    regs[(int(parts[1]), int(parts[2]))] = RegisterValue(
                        bool(int(parts[3])), int(parts[4])
                    )
                else:
                    raise ScenarioError(f"unknown config directive {parts[0]!r} (line {lineno})")
            except (IndexError, ValueError) as exc:
                if isinstance(exc, ScenarioError):
                    raise
                raise ScenarioError(f"bad config line {lineno}: {raw!r}") from exc
    if set(states) != set(range(topo.n)):
        raise ScenarioError("config file must give a state for every process")
    registers = [None] * topo.num_registers
    for v in range(topo.n):
        for k, slot in enumerate(topo.out_slot[v], 1):
            u = topo.neighbor_order[v][k - 1]
            if (v, u) not in regs:
                raise ScenarioError(f"config file missing register {v} -> {u}")
            registers[slot] = regs[(v, u)]
    return Configuration(tuple(states[v] for v in range(topo.n)), tuple(registers))


def write_config_file(path: str, topo: Topology, config: Configuration, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for v in range(topo.n):
            st = config.states[v]
            fh.write(f"state {v} {st.prnt} {st.level}\n")
        for v in range(topo.n):
            for k, slot in enumerate(topo.out_slot[v], 1):
                u = topo.neighbor_order[v][k - 1]
                r = config.registers[slot]
                fh.write(f"reg {v} {u} {int(r.prnt)} {r.level}\n")


def _corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def resolve_named_init(name: str, base_dir: Path) -> Path:
    cand = base_dir / name
    if cand.exists():
        return cand
    cand = _corpus_dir() / name
    if cand.exists():
        return cand
    cand = _corpus_dir() / f"{name}.init"
    if cand.exists():
        return cand
    raise ScenarioError(f"named initial configuration {name!r} not found")


# ---------------------------------------------------------------------------
# bound formulas

def bound_limits(names: list[str], topo: Topology, sc: Scenario) -> dict[str, tuple[int, str]]:
    metrics = correct_metrics(topo)
    delta = topo.max_degree
    d = metrics.d if metrics.d is not None else topo.n
    f = metrics.f
    n = topo.n
    out: dict[str, tuple[int, str]] = {}
    for name in names:
        if name == "st_disruptions":
            out[name] = (f * delta**d, "max")
        elif name == "st_changes":
            out[name] = (delta**d, "max")
        elif name == "st_rounds":
            out[name] = (4 * (n - f) * delta**d, "max")
        elif name == "to_disruptions":
            if len(topo.byzantine) != 1:
                raise ScenarioError("to_disruptions needs exactly one Byzantine process")
            z = next(iter(topo.byzantine))
            out[name] = (topo.degree(z), "max")
        elif name == "to_changes":
            out[name] = (1, "max")
        elif name == "to_rounds":
            out[name] = (2 * d + 2, "max")
        elif name == "min_disruptions":
            out[name] = (sc.expect_min_disruptions, "min")
        else:
            raise ScenarioError(f"unknown bound name {name!r}")
    return out


# ---------------------------------------------------------------------------
# subcommands

def _setup(sc: Scenario):
    protocol = PROTOCOLS[sc.protocol]
    foreign = set(sc.bounds) - set(protocol.bound_names) - {"min_disruptions"}
    if foreign:
        raise ScenarioError(f"not {protocol.name} bounds: {' '.join(sorted(foreign))}")
    seeds = sc.resolved_seeds()
    topo_path = sc.base_dir / sc.topology_path
    topo = load_topology(str(topo_path), neighbor_seed=seeds["neighbor"], mode=protocol.name)
    fairness = sc.fairness_bound if sc.fairness_bound is not None else 2 * topo.n
    try:
        daemon = Daemon(kind=sc.daemon_kind, fairness_bound=fairness, rng_seed=seeds["daemon"], hostile=sc.hostile)
        adversary = make_adversary(sc.adversary, sc.adversary_params, seeds["adversary"], topo, protocol)
    except (EngineError, ValueError) as exc:
        raise ScenarioError(str(exc)) from None
    if sc.init_mode == "arbitrary":
        init = engine_mod.arbitrary_configuration(topo, protocol, seeds["init"])
    elif sc.init_mode == "legitimate":
        if sc.init_arg is not None and sc.init_arg not in protocol.legitimate_kinds:
            raise ScenarioError(f"protocol {protocol.name} has no legitimate kind {sc.init_arg!r}")
        init = protocol.legitimate_configuration(topo, seeds["init"], sc.init_arg)
    elif sc.init_mode == "named":
        if not sc.init_arg:
            raise ScenarioError("init named needs a file name")
        init = read_config_file(str(resolve_named_init(sc.init_arg, sc.base_dir)), topo)
    else:
        raise ScenarioError(f"unknown init mode {sc.init_mode!r}")
    return topo, protocol, daemon, adversary, init


def cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    if args.expect_unbounded:
        sc.bounds = [b for b in sc.bounds if not b.endswith("disruptions")]
        sc.bounds.append("min_disruptions")
    topo, protocol, daemon, adversary, init = _setup(sc)
    trace = run(topo, protocol, adversary, daemon, init, StopCondition(max_steps=sc.max_steps))
    limits = bound_limits(sc.bounds, topo, sc)
    report = analysis.verify_containment(trace, topo, protocol, sc.radius, limits)
    text = analysis.render_report(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(str(out / "trace.jsonl"), trace, topo, protocol)
    (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0 if report.all_passed else 1


def _sweep_topology(kind: str, n: int, f: int, protocol: Protocol, seed: int, extra: int) -> Topology:
    reason = None
    for attempt in range(50):
        s = seed + 7919 * attempt
        if kind == "random-tree":
            edges = random_tree_edges(n, s)
        elif kind == "random-graph":
            edges = random_connected_graph_edges(n, extra, s)
        elif kind == "chain":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif kind == "star":
            edges = [(0, i) for i in range(1, n)]
        else:
            raise ScenarioError(f"unknown topology kind {kind!r}")
        root, byz = protocol.sweep_placement(n, f, random.Random(s))
        try:
            return build_topology(edges, root=root, byzantine=byz, neighbor_seed=s, mode=protocol.name)
        except TopologyError as exc:
            reason = exc  # e.g. the Byzantine choice disconnected the correct subgraph; retry
    raise ScenarioError(f"could not build a valid sweep topology: {reason}")


def _sweep_row(job: dict) -> dict:
    """One seeded replication; self-contained so replications can run in
    worker processes."""
    protocol = PROTOCOLS[job["protocol"]]
    topo = _sweep_topology(job["kind"], job["n"], job["f"], protocol, job["seed"], job["extra"])
    metrics = correct_metrics(topo)
    sc = Scenario(topology_path="-", protocol=job["protocol"], expect_min_disruptions=0)
    limits = bound_limits(protocol.sweep_bounds(job["f"]), topo, sc)
    seed = job["seed"]
    try:
        adversary = make_adversary(job["adv_name"], job["adv_params"], seed * 1000 + 3, topo, protocol)
        daemon = Daemon(kind=job["daemon"], fairness_bound=2 * job["n"], rng_seed=seed * 1000 + 1)
    except (EngineError, ValueError) as exc:
        raise ScenarioError(str(exc)) from None
    if job["init"] == "legitimate":
        init = protocol.legitimate_configuration(topo, seed * 1000 + 2)
    else:
        init = engine_mod.arbitrary_configuration(topo, protocol, seed * 1000 + 2)
    trace = run(topo, protocol, adversary, daemon, init, StopCondition(max_steps=job["max_steps"]))
    report = analysis.verify_containment(trace, topo, protocol, job["radius"], limits)
    ok = report.all_passed and not report.never_stabilized
    return {
        "protocol": job["protocol"],
        "n": job["n"],
        "f": job["f"],
        "adversary": job["adv_name"],
        "seed": seed,
        "delta": topo.max_degree,
        "d": metrics.d,
        "rounds": report.stabilization_round,
        "disruptions": report.t_observed,
        "max_changes": report.k_observed,
        **{f"bound_{name}": limits[name][0] for name in sorted(limits)},
        "pass": ok,
    }


def cmd_sweep(args) -> int:
    p = Path(args.spec)
    with open(p, encoding="utf-8") as fh:
        text = fh.read()
    values: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            parts = line.split()
            values.setdefault(parts[0], []).append(" ".join(parts[1:]))

    def one(key, default):
        return values.get(key, [default])[0]

    protocol_name = one("protocol", "ss-to")
    if protocol_name not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {protocol_name!r}")
    ns = [_integer("sweep", "n", x) for x in one("n", "").split()]
    fs = [_integer("sweep", "f", x) for x in one("f", "0").split()]
    adversaries = [_adversary_spec(line) for line in values.get("adversary", ["silent"])]
    defaults = {"replications": "5", "seed": "0", "max_steps": "3000", "radius": "0", "extra_edges": "1"}
    reps, base_seed, max_steps, radius, extra = (_integer("sweep", k, one(k, d)) for k, d in defaults.items())

    jobs = []
    idx = 0
    for n in ns:
        for f in fs:
            for adv_name, adv_params in adversaries:
                for rep in range(reps):
                    idx += 1
                    jobs.append(
                        {
                            "protocol": protocol_name,
                            "kind": one("topology_kind", "random-tree"),
                            "n": n,
                            "f": f,
                            "adv_name": adv_name,
                            "adv_params": adv_params,
                            "seed": base_seed + idx,
                            "max_steps": max_steps,
                            "radius": radius,
                            "init": one("init", "arbitrary"),
                            "extra": extra,
                            "daemon": one("daemon", "distributed"),
                        }
                    )

    # replications are independent; `map` keeps the grid order either way
    if args.jobs > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]
    all_pass = all(row["pass"] for row in rows)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    for line in _summarize(rows):
        print(line)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0 if all_pass else 1


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
            f"{'pass' if all(r['pass'] for r in g) else 'FAIL'}"
        )
    return lines


def cmd_oracle(args) -> int:
    topo = load_topology(args.topology, neighbor_seed=args.neighbor_seed, mode=args.protocol)
    protocol = PROTOCOLS[args.protocol]
    result = analysis.brute_force_verify(
        topo,
        protocol,
        args.property,
        args.level_bound,
        n_cap=args.oracle_cap,
    )
    if result.prop == "converges-to":
        verdict = "yes (all initial states in the bounded domain)" if result.converges else "NO"
        print(f"converges: {verdict}")
        if result.counterexample is not None:
            print(f"counterexample states: {[tuple(s) for s in result.counterexample.states]}")
        print(f"states explored: {result.states_explored}")
        return 0 if result.converges else 1
    print(f"anchors: {result.anchors}")
    if result.unbounded:
        print("worst disruptions: UNBOUNDED")
        return 1
    print(f"worst disruptions: {result.worst_disruptions}")
    print(f"worst per-process changes: {result.worst_per_process}")
    print(f"game states: {result.states_explored}")
    return 0


def cmd_replay(args) -> int:
    try:
        trace, topo, protocol_name = read_trace(args.trace)
    except (EngineError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"malformed trace file {args.trace}: {type(exc).__name__}: {exc}") from None
    if protocol_name not in PROTOCOLS:
        raise ScenarioError(f"trace names unknown protocol {protocol_name!r}")
    protocol = PROTOCOLS[protocol_name]
    try:
        check_locality(trace, topo)
        check_replay(trace, topo, protocol)
    except EngineError as exc:
        print(f"replay FAILED: {exc}")
        return 1
    print(f"replay ok: {len(trace.steps)} steps, stop={trace.stop_reason}, rounds={len(trace.round_ends)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="strongstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and check its bounds")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument(
        "--expect-unbounded",
        action="store_true",
        help="pass when disruptions keep accumulating instead of staying bounded",
    )
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
    p_oracle.add_argument("--oracle-cap", type=int, default=4)
    p_oracle.add_argument("--neighbor-seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_replay = sub.add_parser("replay", help="re-execute a trace file and verify it")
    p_replay.add_argument("trace")
    p_replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TopologyError, analysis.OracleCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
