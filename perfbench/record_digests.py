"""Record the exports workload's configurations and the SHA-256 of every CSV.

The exports workload checks that each CSV it writes is byte-identical to the
one recorded here, so a perf change cannot alter deterministic output.  Run
this only when the workload's sizes change, never to absorb an output change:

    PYTHONPATH=src python3 perfbench/record_digests.py

It writes perfbench/digests.json: the sweep size, the uses per simulation,
the digests of the seed-independent files (fig3, fig4, fig6, seq) and a pool
of seeded configurations (one custom sweep and the simulation parameters)
with their digests.  A workload seed selects pool entry ``seed % len(pool)``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import workloads
from chancap import cli

POINTS = 8000
USES = 2_000_000
SIMULATIONS = 10
POOL = 8


def _digest(argv: list[str], path: str) -> str:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _custom(rng) -> dict:
    lo, hi = sorted(float(v) for v in rng.uniform(0.0, 1.0, size=2))
    fixed = float(rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        return {"lambda-min": lo, "lambda-max": hi, "p": fixed}
    return {"lambda": fixed, "p-min": lo, "p-max": hi}


def _simulation(rng, tmp: str) -> tuple[dict, str]:
    """Draw parameters and a seed; redraw the seed while an estimate misses 3σ.

    A 3σ miss happens by chance in about 0.3 % of runs; recording only seeds
    whose estimates fall inside it keeps the workload free of chance failures
    while the check still catches a sampler that drifts.
    """
    lam = float(rng.uniform(0.05, 0.95))
    p = float(rng.uniform(0.0, 1.0))
    path = f"{tmp}/simulate.csv"
    while True:
        sim = {"lambda": lam, "p": p, "seed": int(rng.integers(0, 2**63))}
        digest = _digest(workloads.simulate_argv(sim, USES, path), path)
        if not workloads.Exports._sim_problems(path):
            return sim, digest


def main() -> None:
    rng = np.random.default_rng(230500680)
    tmp = workloads.HERE.parent / ".perfbench-out" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    out = f"{tmp}/out.csv"
    common = {
        f"sweep-{sc}.csv": _digest(workloads.sweep_argv(sc, "csv", POINTS, {}, out), out)
        for sc in ("fig3", "fig4", "fig6")
    }
    common["seq.csv"] = _digest(["seq", "--out", out], out)
    pool = []
    for _ in range(POOL):
        custom = _custom(rng)
        digests = {"sweep-custom.csv": _digest(
            workloads.sweep_argv("custom", "csv", POINTS, custom, out), out)}
        sims = []
        for i in range(SIMULATIONS):
            sim, digests[f"simulate-{i}.csv"] = _simulation(rng, tmp)
            sims.append(sim)
        pool.append({"custom": custom, "simulate": sims, "digests": digests})
    spec = {"points": POINTS, "uses": USES, "common": common, "pool": pool}
    workloads.DIGESTS.write_text(json.dumps(spec, indent=1) + "\n")
    print(f"wrote {workloads.DIGESTS} with {len(pool)} configurations")


if __name__ == "__main__":
    main()
