#!/usr/bin/env python3
"""Drive the headline experiments end to end and leave their artifacts in
./results: the fault-free round-bound sweep, the Byzantine construction
sweep, the exact worst-case and convergence oracles on the small instances,
and the two-Byzantine chain demonstration where disruptions never stop accruing.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
# the package runs from this checkout's source tree, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def cli(*args: str, keep: Optional[Path] = None) -> bool:
    """Run one command, and write its stdout to `keep` as well when given;
    True when it failed, whatever its nonzero exit code."""
    cmd = [sys.executable, "-m", "strongstab.cli", *args]
    print("+", " ".join(args), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE if keep else None, text=True)
    if keep:
        sys.stdout.write(proc.stdout)
        keep.write_text(proc.stdout)
    return proc.returncode != 0


def oracle(topology: str, protocol: str, prop: str, level_bound: int) -> bool:
    """One oracle query; its stdout goes to results/oracle/<topology>-<property>-lb<k>.txt,
    so the diff of results/ shows any number that changes."""
    return cli(
        "oracle", "--topology", f"topologies/{topology}.topo", "--protocol", protocol,
        "--property", prop, "--level-bound", str(level_bound),
        keep=RESULTS / "oracle" / f"{topology}-{prop}-lb{level_bound}.txt",
    )


def main() -> int:
    (RESULTS / "oracle").mkdir(parents=True, exist_ok=True)
    failures = 0

    failures += cli("sweep", "--spec", "sweeps/to_fault_free.sweep", "--out", str(RESULTS / "to_ff"))
    failures += cli("sweep", "--spec", "sweeps/st_byzantine_mix.sweep", "--out", str(RESULTS / "st_mix"))

    # the two-Byzantine chain has no bounded worst case, so only the paths, the star and
    # the trees are queried; on the 5-path the worst case meets Delta_z = 2, on the 4-star
    # it is 0 <= Delta_z = 3, on the 8-tree, whose Byzantine process is interior with
    # three differently shaped branches, it is 2 <= Delta_z = 3, and the fault-free 7-tree
    # has no disruption at all
    failures += oracle("path3_st", "ss-st", "worst-disruptions", 3)
    failures += oracle("path5_to", "ss-to", "worst-disruptions", 3)
    failures += oracle("star4_to", "ss-to", "worst-disruptions", 3)
    failures += oracle("tree8_to", "ss-to", "worst-disruptions", 1)
    failures += oracle("tree7_ff", "ss-to", "worst-disruptions", 3)
    # from every configuration of the bounded domain, both protocols converge fault-free on the 3-path
    failures += oracle("path3_ff", "ss-to", "converges-to", 2)
    failures += oracle("path3_ff_st", "ss-st", "converges-to", 1)

    failures += cli(
        "run", "--scenario", "scenarios/st_fakeroot_path6.scn", "--out", str(RESULTS / "fakeroot")
    )
    failures += cli(
        "run", "--scenario", "scenarios/to_inflation_tree8.scn", "--out", str(RESULTS / "inflation")
    )
    # the demonstration is expected to blow through any fixed disruption count (its `bounds min_disruptions`)
    failures += cli("run", "--scenario", "scenarios/to_chain5_replay.scn", "--out", str(RESULTS / "chain5"))

    print(f"\n{'all experiments passed' if not failures else f'{failures} experiment(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
