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

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
# the package runs from this checkout's source tree, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def cli(*args: str) -> bool:
    """Run one command; True when it failed, whatever its nonzero exit code."""
    cmd = [sys.executable, "-m", "strongstab.cli", *args]
    print("+", " ".join(args))
    return subprocess.run(cmd, cwd=ROOT, env=ENV).returncode != 0


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    failures = 0

    failures += cli("sweep", "--spec", "sweeps/to_fault_free.sweep", "--out", str(RESULTS / "to_ff"))
    failures += cli("sweep", "--spec", "sweeps/st_byzantine_mix.sweep", "--out", str(RESULTS / "st_mix"))

    # the two-Byzantine chain has no bounded worst case, so only the paths, the star and
    # the trees are queried; on the 5-path the worst case meets Delta_z = 2, on the 4-star
    # it is 0 <= Delta_z = 3, on the 8-tree, whose Byzantine process is interior with
    # three differently shaped branches, it is 2 <= Delta_z = 3, and the fault-free 7-tree
    # has no disruption at all
    failures += cli(
        "oracle", "--topology", "topologies/path3_st.topo", "--protocol", "ss-st",
        "--property", "worst-disruptions", "--level-bound", "3",
    )
    failures += cli(
        "oracle", "--topology", "topologies/path5_to.topo", "--protocol", "ss-to",
        "--property", "worst-disruptions", "--level-bound", "3",
    )
    failures += cli(
        "oracle", "--topology", "topologies/star4_to.topo", "--protocol", "ss-to",
        "--property", "worst-disruptions", "--level-bound", "3",
    )
    failures += cli(
        "oracle", "--topology", "topologies/tree8_to.topo", "--protocol", "ss-to",
        "--property", "worst-disruptions", "--level-bound", "1",
    )
    failures += cli(
        "oracle", "--topology", "topologies/tree7_ff.topo", "--protocol", "ss-to",
        "--property", "worst-disruptions", "--level-bound", "3",
    )
    # from every configuration of the bounded domain, both protocols converge fault-free on the 3-path
    failures += cli(
        "oracle", "--topology", "topologies/path3_ff.topo", "--protocol", "ss-to",
        "--property", "converges-to", "--level-bound", "2",
    )
    failures += cli(
        "oracle", "--topology", "topologies/path3_ff_st.topo", "--protocol", "ss-st",
        "--property", "converges-to", "--level-bound", "1",
    )

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
