#!/usr/bin/env python3
"""Drive the headline experiments end to end and leave their artifacts in
./results: the fault-free round-bound sweep, the Byzantine construction
sweep, the exact worst-case and convergence oracles on the small instances,
one oracle worst-case play, and the two-Byzantine chain demonstration where
disruptions never stop accruing.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
# the package runs from this checkout's source tree, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

# The headline oracle queries: each one's stdout also goes to
# results/oracle/<topology>-<property>-lb<k>.txt, and a nonzero exit fails the script.
# The two-Byzantine chain has no bounded worst case, so only the paths, the star and
# the trees are queried; on the 5-path the worst case meets Delta_z = 2, on the 4-star
# it is 0 <= Delta_z = 3, on the 8-tree, whose Byzantine process is interior with
# three differently shaped branches, it is 2 <= Delta_z = 3, and the fault-free 7-tree
# has no disruption at all. From every configuration of the bounded domain, both
# protocols converge fault-free on the 3-path.
HEADLINE = {
    ("path3_st", "ss-st", "worst-disruptions", 3),
    ("path5_to", "ss-to", "worst-disruptions", 3),
    ("star4_to", "ss-to", "worst-disruptions", 3),
    ("tree8_to", "ss-to", "worst-disruptions", 1),
    ("tree7_ff", "ss-to", "worst-disruptions", 3),
    ("path3_ff", "ss-to", "converges-to", 2),
    ("path3_ff_st", "ss-st", "converges-to", 1),
}


def cli(*args: str) -> bool:
    """Run one command; True when it failed, whatever its nonzero exit code."""
    print("+", " ".join(args), flush=True)
    return subprocess.run([sys.executable, "-m", "strongstab.cli", *args], cwd=ROOT, env=ENV).returncode != 0


def oracle_matrix() -> int:
    """Every oracle query on topologies/*.topo x protocol x property x level bounds 1-3, with
    its exit code, stdout and stderr, into results/oracle/matrix.txt, so the
    diff of results/ shows any oracle output that changes; the number of failed headline queries."""
    failures, entries = 0, []
    queries = itertools.product(
        sorted(path.stem for path in (ROOT / "topologies").glob("*.topo")),
        ("ss-to", "ss-st"), ("converges-to", "worst-disruptions"), (1, 2, 3),
    )
    print("+ oracle matrix", flush=True)
    for query in queries:
        topology, protocol, prop, level_bound = query
        args = [
            "oracle", "--topology", f"topologies/{topology}.topo", "--protocol", protocol,
            "--property", prop, "--level-bound", str(level_bound),
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "strongstab.cli", *args], cwd=ROOT, env=ENV, capture_output=True, text=True
        )
        entries.append(f"+ {' '.join(args)}\nexit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
        if query in HEADLINE:
            print("+", " ".join(args), flush=True)
            sys.stdout.write(proc.stdout)
            (RESULTS / "oracle" / f"{topology}-{prop}-lb{level_bound}.txt").write_text(proc.stdout)
            failures += proc.returncode != 0
    (RESULTS / "oracle" / "matrix.txt").write_text("".join(entries))
    return failures


def main() -> int:
    (RESULTS / "oracle").mkdir(parents=True, exist_ok=True)
    failures = 0

    failures += cli("sweep", "--spec", "sweeps/to_fault_free.sweep", "--out", str(RESULTS / "to_ff"))
    failures += cli("sweep", "--spec", "sweeps/st_byzantine_mix.sweep", "--out", str(RESULTS / "st_mix"))
    failures += oracle_matrix()

    failures += cli(
        "run", "--scenario", "scenarios/st_fakeroot_path6.scn", "--out", str(RESULTS / "fakeroot")
    )
    failures += cli(
        "run", "--scenario", "scenarios/to_inflation_tree8.scn", "--out", str(RESULTS / "inflation")
    )
    # the game's worst play from an LC1 start on the 5-path, so the replay of every trace audits one
    failures += cli("run", "--scenario", "scenarios/to_max_damage_path5.scn", "--out", str(RESULTS / "max_damage"))
    # the demonstration is expected to blow through any fixed disruption count (its `bounds min_disruptions`)
    failures += cli("run", "--scenario", "scenarios/to_chain5_replay.scn", "--out", str(RESULTS / "chain5"))

    print(f"\n{'all experiments passed' if not failures else f'{failures} experiment(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
