"""chancap benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload state-eval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each pass runs in a fresh interpreter (perfbench/child.py), one at a time,
until the time budget is spent; every timing is a median over passes.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of the
traced passes, and untraced passes run alongside to measure the tracing
overhead.  Full results, including every traced function and the spans of
the last traced pass, go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("verify-full", "state-eval", "exports")
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# untraced passes per run at least, so that a median exists; a traced run
# needs two traced passes (counts must repeat) and one untraced for overhead
MIN_PASSES = 3
MIN_TRACED = 2
# set-up samples per untraced run at least: passes give one each, set-up-only
# children (which stop after set-up) make up the rest
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole run, set-up and checks included, must end before 180 s

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"))

# per-layer metrics reported on every workload: a function that a workload
# does not reach reports 0 calls (a count, not a placeholder); times are
# limited to layers every workload reaches
LAYER_TIMES = ("qmath.self_s", "channels.self_s", "capacity.self_s")
CALLS = (
    "qmath.hermitian_eig", "qmath.state_eigenvalues", "qmath.von_neumann_entropy",
    "qmath.binary_entropy",
    "channels.apply", "channels.KrausChannel", "channels.DensityMatrix", "channels.channel_N",
    "channels.complement_N", "channels.choi", "channels.channel_distance",
    "capacity.coherent_information", "capacity.coherent_information_state",
    "capacity.ic_conjugation_residual", "capacity.maximize_coherent_information",
    "capacity.diamond_distance_to_T", "capacity.sweep_fig3", "capacity.sweep_fig4",
    "capacity.sweep_custom", "capacity.CapacityCurvePoint", "capacity.default_sequence",
    "capacity.simulate_two_way_protocol",
    "wiretap.secrecy_capacity_bruteforce", "wiretap.secrecy_objective",
    "wiretap.simulate_feedback_protocol", "wiretap.sweep_fig6", "wiretap.fig6_crossover",
    "verify.run_checks",
    "output.sweep_csv", "output.sweep_json", "output.seq_csv", "output.simulate_csv",
    "output.parse_csv",
    "cli.main",
)
# eig kernels made inside these functions' spans; the per-call distribution is
# reported beside them (6 and 18 per call when the benchmark was added)
EIG_PER_CALL = ("capacity.coherent_information", "capacity.ic_conjugation_residual")
EIG_KERNELS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd")


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over src/chancap/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "chancap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def llc_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_per_pass": {k: "1" for k in BLAS_PINS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes


def run_child(workload: str, seed: int, traced: bool, timeout: float,
              setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **{k: "1" for k in BLAS_PINS})
    spans = OUT / f"spans-{workload}.npz"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd += ["--setup-only"]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run kills the child and waits for it
        return {"crashed": f"pass exceeded {timeout:.0f} s", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"crashed": f"exit {proc.returncode}: {tail}", "traced": traced}
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("setup_end") - t_spawn
    out["wall_s"] = time.perf_counter() - t_spawn
    out["traced"] = traced
    return out


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Start passes one after another until the next would overrun the budget.

    An untraced run then starts set-up-only children until set-up has at
    least SETUP_SAMPLES samples.  Returns (passes, set-up probes).
    """
    passes: list[dict] = []
    probes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        if trace:
            # untraced, traced, traced, then alternate
            want_traced = len(plain) >= 1 and (len(traced) < MIN_TRACED or len(traced) <= len(plain))
            short = len(plain) < 1 or len(traced) < MIN_TRACED
        else:
            want_traced = False
            short = len(plain) < MIN_PASSES
        elapsed = time.perf_counter() - t0
        same_kind = [p["wall_s"] for p in passes if p["traced"] == want_traced and "wall_s" in p]
        estimate = statistics.median(same_kind) if same_kind else 0.0
        if not short and elapsed + estimate > seconds:
            break
        if elapsed + estimate > DEADLINE_S or (passes and "crashed" in passes[-1]):
            break
        passes.append(run_child(workload, seed, want_traced, DEADLINE_S - elapsed))
    while not trace and len(passes) + len(probes) < SETUP_SAMPLES:
        if time.perf_counter() - t0 > DEADLINE_S - 20.0 or "crashed" in (probes or passes)[-1]:
            break
        probes.append(run_child(workload, seed, False, 20.0, setup_only=True))
    return passes, probes


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int) -> float | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def describe(values, unit: str) -> dict:
    values = [float(v) for v in values]
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) <= 50:
        out["samples"] = values
    q = tail_percentile(len(values))
    if q is not None and q > 50.0:
        out[f"p{q:g}"] = float(np.percentile(values, q))
    return out


def fmt_line(name: str, d: dict) -> str:
    extra = "".join(f", {k}={v:.6g}" for k, v in d.items() if k.startswith("p") and k[1].isdigit())
    over = "pooled calls" if re.search(r"_p\d+_us", name) else "median of"
    return f"  {name:34s} {d['value']:.6g} {d['unit']}  ({over} n={d['n']}{extra})"


def workload_metrics(workload: str, plain: list[dict], probes: list[dict]) -> dict:
    """The workload's own end-to-end metrics, as named in the benchmark README."""
    out = {
        "setup_s": describe([p["setup_s"] for p in plain + probes], "s"),
        "peak_rss_mb": describe([p["rss_mb"] for p in plain], "MB"),
        "pass_s": describe([p["pass_s"] for p in plain], "s"),
    }
    units = {"verify_s": "s", "ic_evals_per_s": "1/s", "sweep_rows_per_s": "1/s",
             "mc_uses_per_s": "1/s"}
    for key in plain[0]["metrics"] if plain else ():
        out[key] = describe([p["metrics"][key] for p in plain], units[key])
    if workload == "state-eval" and plain:
        # pooled over every call kind, then per kind, so that a change to one
        # kind is not hidden by the mix
        kinds = list(plain[0]["latencies_us"])
        groups = [("", kinds)] + [(f".{k}", [k]) for k in kinds]
        for suffix, chosen in groups:
            lat = np.concatenate([p["latencies_us"][k] for p in plain for k in chosen])
            for q in (50, 99):
                d = {"value": float(np.percentile(lat, q)), "unit": "us", "n": int(lat.size)}
                tail = tail_percentile(lat.size)
                if q == 99 and tail is not None and tail > 99.0:
                    d[f"p{tail:g}"] = float(np.percentile(lat, tail))
                out[f"ic_eval_p{q}_us{suffix}"] = d
    return out


def layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics: the subset for the JSON line and the full per-function table."""
    summaries = [p["trace"] for p in traced]
    first = summaries[0]["functions"]

    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    def layer_self(s, layer):
        return sum(f["self_s"] for n, f in s["functions"].items() if n.split(".")[0] == layer)

    metrics = {}
    for name in LAYER_TIMES:
        layer = name.split(".")[0]
        metrics[name] = {"value": median_of(lambda s: layer_self(s, layer)), "unit": "s"}
    metrics["trace.unwrapped_s"] = {
        "value": median_of(lambda s: s["pass_s"] - s["covered_s"]), "unit": "s"}
    traced_pass = median_of(lambda s: s["pass_s"])
    metrics["trace.pass_s"] = {"value": traced_pass, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_pass - statistics.median(p["pass_s"] for p in plain), "unit": "s"}
    kernels = [first.get(k, {}) for k in EIG_KERNELS]
    counts = {
        "qmath.eig_calls": sum(k.get("calls", 0) for k in kernels),
        "qmath.eig_matrices": sum(k.get("matrices", 0) for k in kernels),
        "qmath.einsum_calls": first.get("numpy.einsum", {}).get("calls", 0),
        "output.bytes_written": summaries[0]["bytes_out"],
        "trace.spans": summaries[0]["spans"],
    }
    for name in CALLS:
        counts[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
    for name in EIG_PER_CALL:
        counts[f"{name}.eig_calls"] = first.get(name, {}).get("eig_calls", 0)
    for key, value in counts.items():
        metrics[key] = {"value": value, "unit": "count"}

    table = {}
    for name in sorted({n for s in summaries for n in s["functions"]}):
        rows = [s["functions"].get(name) for s in summaries]
        rows = [r for r in rows if r]
        table[name] = {
            "calls": rows[0]["calls"],
            "self_s": statistics.median(r["self_s"] for r in rows),
            "us_per_call": statistics.median(r["us_per_call"] for r in rows),
        }
    table["qmath.eig_s"] = {"s": median_of(
        lambda s: sum(s["functions"].get(k, {}).get("total_s", 0.0) for k in EIG_KERNELS))}
    table["qmath.einsum_s"] = {"s": median_of(
        lambda s: s["functions"].get("numpy.einsum", {}).get("total_s", 0.0))}
    table["qmath.eig_by_kernel"] = {k: e.get("calls", 0) for k, e in zip(EIG_KERNELS, kernels)}
    # an observation, not a check: an optimisation may rightly change it
    table["eig_per_call"] = {n: first[n]["eig_per_call"] for n in EIG_PER_CALL if n in first}
    return metrics, table


def count_signature(summary: dict) -> dict:
    return {name: (f["calls"], f["matrices"], f["eig_calls"])
            for name, f in summary["functions"].items()}


# ---------------------------------------------------------------------------
# runs


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    passes, probes = run_passes(workload, seed, seconds, trace)
    plain = [p for p in passes if not p["traced"] and "crashed" not in p]
    traced = [p for p in passes if p["traced"] and "crashed" not in p]
    crashed = [p["crashed"] for p in passes + probes if "crashed" in p]
    probes = [p for p in probes if "crashed" not in p]

    attempted = sum(p["attempted"] for p in plain + traced) + len(crashed)
    failed = sum(p["failed"] for p in plain + traced) + len(crashed)
    problems = [msg for p in plain + traced for msg in p["problems"]] + crashed
    if len(traced) > 1:
        attempted += 1  # the kernel and call counts must repeat exactly between traced passes
        signatures = [count_signature(p["trace"]) for p in traced]
        if any(s != signatures[0] for s in signatures[1:]):
            failed += 1
            problems.append("call or kernel counts differ between traced passes")

    complete = bool(plain) and (bool(traced) or not trace)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "sizes": (plain or traced or [{}])[0].get("sizes"),
        "passes": {"untraced": len(plain), "traced": len(traced), "crashed": len(crashed),
                   "setup_only": len(probes)},
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "workload_metrics": workload_metrics(workload, plain, probes) if plain else {},
    }
    if trace and traced and plain:
        result["per_layer"], result["layer_table"] = layer_metrics(traced, plain)
        result["verify_check_s"] = verify_check_seconds(traced)
    result["correct"] = complete and failed == 0
    return result


def verify_check_seconds(traced: list[dict]) -> dict:
    """verify.<check_name>.s: median wall time of each check's span."""
    # check spans are named verify.<module>.<check>; verify's own functions have one dot
    names = {n for p in traced for n in p["trace"]["functions"] if n.startswith("verify.")
             and n.count(".") >= 2}
    return {f"{n}.s": statistics.median(p["trace"]["functions"][n]["total_s"] for p in traced
                                        if n in p["trace"]["functions"])
            for n in sorted(names)}


def report(result: dict) -> list[str]:
    env = result["environment"]
    lines = [
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"passes={result['passes']}",
        f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']} with 1 thread per "
        f"child, nproc {env['nproc']}, LLC {env['llc_bytes']} B, commit {env['git_commit']}",
        f"  sizes: {json.dumps(result['sizes'])}",
        f"  fail_frac                          {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / max(1, result['attempted']):.6g}",
    ]
    lines += [fmt_line(k, v) for k, v in result["workload_metrics"].items()]
    if "per_layer" in result:
        lines.append("  per-layer (traced passes):")
        lines += [f"  {k:44s} {v['value']:.6g} {v['unit']}" for k, v in result["per_layer"].items()]
        lines.append("  traced functions by self time: calls, self_s, us_per_call")
        table = {k: v for k, v in result["layer_table"].items() if "calls" in v}
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:40]:
            lines.append(f"    {name:52s} {row['calls']:9d} {row['self_s']:10.4f} "
                         f"{row['us_per_call']:12.1f}")
        for k in ("qmath.eig_s", "qmath.einsum_s", "qmath.eig_by_kernel", "eig_per_call"):
            lines.append(f"    {k}: {result['layer_table'][k]}")
        lines += [f"    {k:60s} {v:.4f} s" for k, v in result["verify_check_s"].items()]
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def result_line(result: dict) -> str:
    if result["trace"]:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result.get("per_layer", {}).items()}
    else:
        wm = result["workload_metrics"]
        metrics = {k: {"value": wm[k]["value"], "unit": unit} for k, unit in END_TO_END if k in wm}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chancap" / "__init__.py").is_file():
        print(f"no chancap sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(report(result)))
        print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
