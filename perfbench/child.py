"""One workload pass in a fresh interpreter; prints its measurements as one JSON line.

run.py starts this file once per pass, with PYTHONPATH pointing at the
checkout's src/ and BLAS threads pinned to 1.  The pass pays the same cold
caches and lazy numpy set-up as a `chancap` invocation does.

    python3 perfbench/child.py --workload state-eval --seed 1 --trace 0

With ``--setup-only`` it stops after set-up and reports only when set-up
ended; run.py uses that to take more set-up samples than passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="", help="write the traced pass's spans to this .npz")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    import chancap

    src = ROOT / "src"
    if Path(chancap.__file__).resolve().parent != src / "chancap":
        print(f"chancap imported from {chancap.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Exports:
        wl = cls(args.seed, ROOT / ".perfbench-out" / "exports")
    else:
        wl = cls(args.seed)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        raw = wl.run_pass(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hasattr(wl, "measure_footprint"):
        wl.measure_footprint()

    attempted, problems = wl.check(raw)
    out = {
        "setup_end": setup_end,
        "pass_s": raw["pass_s"],
        "rss_mb": rss_mb,
        "sizes": wl.sizes,
        "metrics": wl.metrics(raw),
    }
    if hasattr(wl, "latencies_by_kind"):
        out["latencies_us"] = wl.latencies_by_kind(raw)
    if tracer is not None:
        out["trace"] = tracer.summary(raw["pass_s"])
        if args.spans:
            tracer.save(args.spans)
    out["attempted"] = attempted
    out["failed"] = len({str(key) for key, _ in problems})
    out["problems"] = [f"{key}: {msg}" for key, msg in problems[:20]]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
