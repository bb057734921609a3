"""Command-line front end: verification, figure sweeps, sequences, simulations.

Exit codes: 0 ok, 1 verification failure, 2 precondition/domain violation,
3 I/O error.  ``CHANCAP_SEED`` supplies the default seed; an optional config
file of ``key = value`` lines mirrors the long flags, with flags winning, and
rejects any key it does not read.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from . import capacity as cap
from . import output
from . import verify as verify_mod
from . import wiretap as wt
from .errors import ChancapError, DomainError, PreconditionViolated
from .qmath import check_prob

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_IO = 3

# the fixed curves by scenario name; "custom" is built from the range flags
CURVES = {"fig3": cap.FIG3, "fig4": cap.FIG4, "fig6": wt.FIG6}
SCENARIOS = (*CURVES, "custom")
FORMATS = ("csv", "json")
# the alternating-bounds sequence shrinks doubly exponentially: term 6 underflows
MAX_TERMS = 5


@dataclass
class RunConfig:
    command: str
    scenario: str = "fig3"
    lambda_min: float = 0.0
    lambda_max: float = 0.0
    p_min: float = 0.0
    p_max: float = 0.0
    points: int = 100
    terms: int = 5
    uses: int = 100_000
    seed: int = 0
    kind: str = "both"
    out_path: Optional[str] = None
    fmt: str = "csv"
    emit_plot_script: bool = False
    only: Optional[str] = None

    def validate(self) -> None:
        for name, v in (
            ("lambda-min", self.lambda_min),
            ("lambda-max", self.lambda_max),
            ("p-min", self.p_min),
            ("p-max", self.p_max),
        ):
            check_prob(f"--{name}", v)
        if self.points < 2:
            raise DomainError(f"--points must be >= 2, got {self.points!r}")
        if self.uses < 1:
            raise DomainError(f"--uses must be >= 1, got {self.uses!r}")
        if not 1 <= self.terms <= MAX_TERMS:
            raise DomainError(
                f"--terms must lie in [1, {MAX_TERMS}] (later terms underflow float64), "
                f"got {self.terms!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"--seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.scenario not in SCENARIOS:
            raise DomainError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.fmt not in FORMATS:
            raise DomainError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if self.emit_plot_script and (self.out_path is None or self.fmt != "csv"):
            raise DomainError("--emit-plot-script needs --out and the csv format")


# keys a config file may set: one per long flag read from it, with ``lambda``
# and ``p`` mirroring --lambda and --p
CONFIG_KEYS = frozenset(
    ("scenario", "lambda", "lambda_min", "lambda_max", "p", "p_min", "p_max", "points",
     "terms", "uses", "seed", "kind", "out", "format")
)
# sweep flags that only a custom sweep reads
CUSTOM_SWEEP_FLAGS = (
    ("lam", "--lambda"), ("p", "--p"), ("lambda_min", "--lambda-min"),
    ("lambda_max", "--lambda-max"), ("p_min", "--p-min"), ("p_max", "--p-max"),
)


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _cast(cast, value: str, what: str):
    try:
        return cast(value)
    except ValueError:
        raise DomainError(f"{what} must be of type {cast.__name__}, got {value!r}") from None


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name: str, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return _cast(cast, file_values[name], f"config value {name}")
        return default

    seed = pick("seed", int, None)
    if seed is None:  # the environment is read only when flag and file are silent
        env_seed = os.environ.get("CHANCAP_SEED")
        seed = 0 if env_seed is None else _cast(int, env_seed, "CHANCAP_SEED")

    def pick_range(name: str, flag: str, default: float) -> tuple[float, float]:
        # a flag beats every config key; at each level the fixed value
        # (--lambda, or the key lambda) beats the range ends
        lo, hi = f"{name}_min", f"{name}_max"
        fixed = getattr(args, flag, None)
        ends_given = getattr(args, lo, None) is not None or getattr(args, hi, None) is not None
        if fixed is not None and ends_given:
            raise DomainError(f"--{name} excludes --{name}-min and --{name}-max")
        if fixed is None and not ends_given:
            fixed = pick(name, float, None)
        if fixed is not None:
            return fixed, fixed
        return pick(lo, float, default), pick(hi, float, default)

    # simulate runs at (0.3, 0.1) unless a flag or the config file says otherwise
    lam_default, p_default = (0.3, 0.1) if args.command == "simulate" else (0.0, 0.0)
    lambda_min, lambda_max = pick_range("lambda", "lam", lam_default)
    p_min, p_max = pick_range("p", "p", p_default)
    cfg = RunConfig(
        command=args.command,
        scenario=pick("scenario", str, "fig3"),
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        p_min=p_min,
        p_max=p_max,
        points=pick("points", int, 100),
        terms=pick("terms", int, 5),
        uses=pick("uses", int, 100_000),
        seed=seed,
        kind=pick("kind", str, "both"),
        out_path=pick("out", str, None),
        fmt=pick("format", str, "csv"),
        emit_plot_script=bool(getattr(args, "emit_plot_script", False)),
        only=getattr(args, "only", None),
    )
    if cfg.command == "sweep" and cfg.scenario != "custom":
        for attr, flag in CUSTOM_SWEEP_FLAGS:
            if getattr(args, attr, None) is not None:
                raise DomainError(f"{flag} applies only to --scenario custom, not {cfg.scenario}")
    cfg.validate()
    return cfg


def _write(cfg: RunConfig, text: str, plot_columns: Optional[tuple] = None) -> None:
    if cfg.out_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if cfg.emit_plot_script and plot_columns:
        script = output.gnuplot_script(os.path.basename(cfg.out_path), plot_columns)
        with open(cfg.out_path + ".gp", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(script)


def cmd_verify(cfg: RunConfig) -> int:
    results = verify_mod.run_checks(only=cfg.only)
    if not results:
        print(f"no checks match filter {cfg.only!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} {r.residual:.6e}"
        if r.detail and not r.passed:
            line += f"  ({r.detail})"
        print(line)
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.scenario == "custom":
        curve = cap.custom_curve(cfg.lambda_min, cfg.lambda_max, cfg.p_min, cfg.p_max)
    else:
        curve = CURVES[cfg.scenario]
    points = cap.sweep(curve, cfg.points)
    if cfg.fmt == "json":
        meta = {**curve.meta(), "tool": "chancap", "version": __version__}
        text = output.sweep_json(points, curve.columns, meta)
    else:
        text = output.sweep_csv(points, curve.columns)
    _write(cfg, text, plot_columns=curve.columns)
    return EXIT_OK


def cmd_seq(cfg: RunConfig) -> int:
    items, meta = cap.default_sequence(cfg.terms)
    meta["tool"] = "chancap"
    meta["version"] = __version__
    text = output.seq_json(items, meta) if cfg.fmt == "json" else output.seq_csv(items, meta)
    _write(cfg, text, plot_columns=tuple(output.SEQ_HEADER.split(",")))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    lam, p = cfg.lambda_min, cfg.p_min
    rows = []
    if cfg.kind in ("quantum_two_way", "both"):
        rate, err = cap.simulate_two_way_protocol(lam, p, cfg.uses, cfg.seed)
        rows.append(
            {
                "kind": "quantum_two_way",
                "lambda": lam,
                "p": p,
                "uses": cfg.uses,
                "seed": cfg.seed,
                "estimate": rate,
                "std_error": err,
                "target": cap.two_way_capacity(lam),
                "leakage": None,
            }
        )
    if cfg.kind in ("wiretap_feedback", "both"):
        throughput, leakage = wt.simulate_feedback_protocol(lam, p, cfg.uses, cfg.seed)
        rows.append(
            {
                "kind": "wiretap_feedback",
                "lambda": lam,
                "p": p,
                "uses": cfg.uses,
                "seed": cfg.seed,
                "estimate": throughput,
                "std_error": float(np.sqrt(lam * (1.0 - lam) / cfg.uses)),
                "target": wt.two_way_secrecy_capacity(lam),
                "leakage": leakage,
            }
        )
    if not rows:
        raise DomainError(f"unknown simulation kind {cfg.kind!r}")
    meta = {"tool": "chancap", "version": __version__}
    text = output.simulate_json(rows, meta) if cfg.fmt == "json" else output.simulate_csv(rows)
    _write(cfg, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Capacity workbench for the glued identity/dephasing-complement "
        "channel family and its classical wiretap analogue.",
    )
    parser.add_argument("--version", action="version", version=f"chancap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file of 'key = value' lines (flags win)")
    common.add_argument("--out", "-o", dest="out", help="output path (default: stdout)")
    common.add_argument("--format", dest="format", choices=FORMATS, help="output format")
    common.add_argument("--seed", dest="seed", type=int, help="RNG seed (default: $CHANCAP_SEED or 0)")

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    p_verify.add_argument("--only", help="run only checks whose name contains this substring")

    p_sweep = sub.add_parser("sweep", parents=[common], help="emit a capacity-curve data file")
    p_sweep.add_argument("--scenario", choices=SCENARIOS, help="curve to sweep (default fig3)")
    p_sweep.add_argument("--points", type=int, help="grid size (default 100)")
    p_sweep.add_argument("--lambda-min", dest="lambda_min", type=float)
    p_sweep.add_argument("--lambda-max", dest="lambda_max", type=float)
    p_sweep.add_argument("--p-min", dest="p_min", type=float)
    p_sweep.add_argument("--p-max", dest="p_max", type=float)
    p_sweep.add_argument("--lambda", dest="lam", type=float, help="fix lambda (custom sweeps)")
    p_sweep.add_argument("--p", dest="p", type=float, help="fix p (custom sweeps)")
    p_sweep.add_argument(
        "--emit-plot-script", action="store_true", help="also write a gnuplot script"
    )

    p_seq = sub.add_parser("seq", parents=[common], help="emit the alternating-bounds sequence")
    p_seq.add_argument("--terms", type=int, help=f"number of terms (default 5, max {MAX_TERMS})")
    p_seq.add_argument("--emit-plot-script", action="store_true")

    p_sim = sub.add_parser("simulate", parents=[common], help="run the Monte Carlo protocols")
    p_sim.add_argument(
        "--kind", choices=("quantum_two_way", "wiretap_feedback", "both"), help="protocol(s)"
    )
    p_sim.add_argument("--lambda", dest="lam", type=float, help="flag weight (default 0.3)")
    p_sim.add_argument("--p", dest="p", type=float, help="dephasing weight (default 0.1)")
    p_sim.add_argument("--uses", type=int, help="channel uses (default 1e5)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "sweep":
            return cmd_sweep(cfg)
        if cfg.command == "seq":
            return cmd_seq(cfg)
        if cfg.command == "simulate":
            return cmd_simulate(cfg)
        raise DomainError(f"unknown command {cfg.command!r}")
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChancapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
