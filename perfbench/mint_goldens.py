"""Mint the benchmark's golden digests into perfbench/goldens.json.

    python3 perfbench/mint_goldens.py --seeds 0 1 2 --workloads steady-sim oracle

For each simulation workload and seed (full and tiny pools) it records each
job's trace-file digest, and its report digest when the report is
conclusive. For the oracle it records the verdict fields of every query
under every neighbor order, which covers all seeds. A job that fails its
audit or a bound aborts minting: goldens are only taken from passing runs.
Entries for other seeds and workloads already in the file are kept.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import tempfile

import run

ORDER_SEED_LIMIT = 10_000


def mint_sim(jobs, workload: str, seed: int, tiny: bool, scratch: str) -> dict:
    pool = jobs.build_pool(workload, seed, tiny)
    out = {}
    for job in itertools.chain.from_iterable(pool.groups):
        res = jobs.run_job(job, scratch)
        if res.failure is not None:
            raise SystemExit(f"{workload} seed {seed} {job.key}: {res.failure}; not minting")
        out[job.key] = {"trace": res.digests["trace"], "report": res.digests["report"] if res.conclusive else None}
    return out


def mint_oracle(jobs) -> dict:
    out = {}
    for name, protocol, prop, level_bound, edges, root, byz in jobs.ORACLE_QUERIES:
        seen = set()
        for neighbor_seed in range(ORDER_SEED_LIMIT):
            topo = jobs.build_topology(edges, root=root, byzantine=byz, neighbor_seed=neighbor_seed, mode=protocol)
            expected = math.prod(math.factorial(topo.degree(v)) for v in range(topo.n))
            key = jobs.oracle_golden_key(name, topo)
            if key in seen:
                continue
            seen.add(key)
            res = jobs.run_oracle_job(jobs.OracleJob(key, key, protocol, prop, level_bound, topo))
            out[key] = res.digests["verdict"]
            print(f"{key}: {out[key]}", flush=True)
            if len(seen) == expected:
                break
        if len(seen) != expected:
            raise SystemExit(f"{name}: found {len(seen)} of {expected} neighbor orders")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=["steady-sim", "converge-scan", "oracle"])
    args = parser.parse_args(argv)
    jobs = run.load_program()
    with open(run.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="mint-", dir=run.WORK_DIR) as scratch:
        for workload in args.workloads:
            if workload == "oracle":
                goldens["oracle"] = mint_oracle(jobs)
                continue
            for tiny in (False, True):
                scope = workload + ("-tiny" if tiny else "")
                for seed in args.seeds:
                    goldens.setdefault(scope, {})[str(seed)] = mint_sim(jobs, workload, seed, tiny, scratch)
                    print(f"minted {scope} seed {seed}", flush=True)
    goldens["mint_seeds"] = sorted(
        {int(s) for scope, entries in goldens.items() if scope not in ("oracle", "mint_seeds") for s in entries}
    )
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
