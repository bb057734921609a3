"""Command-line front end: verification, figure sweeps, sequences, simulations.

Exit codes: 0 ok, 1 verification failure, 2 precondition/domain violation,
3 I/O error.  ``CHANCAP_SEED`` supplies simulate's default seed; an optional config
file of ``key = value`` lines mirrors the long flags of its command, with flags
winning, and rejects any key that command does not read, as well as a
custom-sweep key on a fixed scenario.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from typing import Optional

from . import __version__
from . import capacity as cap
from . import output
from . import verify as verify_mod
from . import wiretap as wt
from .errors import ChancapError, DomainError, PreconditionViolated

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
# the stamp every JSON export's meta carries
STAMP = {"tool": "chancap", "version": __version__}
# the Monte Carlo protocols by kind: the module, its run and the capacity the run
# estimates, looked up at each call so that a patched module attribute is the one run
PROTOCOLS = {
    "quantum_two_way": (cap, "simulate_two_way_protocol", "two_way_capacity"),
    "wiretap_feedback": (wt, "simulate_feedback_protocol", "two_way_secrecy_capacity"),
}
# the type of each key a config file may set; each key is also the dest of its
# long flag, ``--`` + the key with "-" for "_"
CONFIG_TYPES = {
    "scenario": str, "lambda": float, "lambda_min": float, "lambda_max": float, "p": float,
    "p_min": float, "p_max": float, "points": int, "terms": int, "uses": int, "seed": int,
    "kind": str, "out": str, "format": str,
}
# sweep settings that only a custom sweep reads
CUSTOM_SWEEP_FLAGS = ("lambda", "p", "lambda_min", "lambda_max", "p_min", "p_max")
# simulate runs at this (lambda, p) unless a flag or the config file says otherwise
SIMULATE_AT = (0.3, 0.1)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass
class RunConfig:
    """A resolved run; the field defaults are the defaults of the flags."""

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
    out: Optional[str] = None
    format: str = "csv"
    emit_plot_script: bool = False
    only: Optional[str] = None

    def validate(self) -> None:
        """The rules no library function holds; lambda, p, points, uses and
        seed are refused by the gate of the function that reads them."""
        if not 1 <= self.terms <= MAX_TERMS:
            raise DomainError(
                f"--terms must lie in [1, {MAX_TERMS}] (later terms underflow float64), "
                f"got {self.terms!r}"
            )
        if self.scenario not in SCENARIOS:
            raise DomainError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.format not in FORMATS:
            raise DomainError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.emit_plot_script and (self.out is None or self.format != "csv"):
            raise DomainError("--emit-plot-script needs --out and the csv format")


def _read_config_file(path: str) -> dict:
    """The settings of a config file by dest; DomainError, naming the lines, on
    a key set twice or a fixed value (lambda, p) beside its range ends."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values, seen = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_TYPES:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise DomainError(f"{path}:{seen[key]}, {lineno}: config key {key} is set twice")
        values[key], seen[key] = value, lineno
    for name in ("lambda", "p"):
        clash = sorted(seen[k] for k in (name, f"{name}_min", f"{name}_max") if k in seen)
        if name in seen and len(clash) > 1:
            raise DomainError(f"{path}:{', '.join(map(str, clash))}: config key {name} "
                              f"excludes {name}_min and {name}_max")
    return values


def _cast(cast, value: str, what: str):
    try:
        return cast(value)
    except ValueError:
        raise DomainError(f"{what} must be of type {cast.__name__}, got {value!r}") from None


def _resolve(args: argparse.Namespace) -> RunConfig:
    """The run ``args`` ask for: each setting from its flag, else the config
    file, else (simulate's seed only) ``CHANCAP_SEED``, else its RunConfig default."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_values.items():
        # args holds the dest of every flag of the command's own parser
        if not hasattr(args, key):
            raise DomainError(f"config key {key} = {value!r} is not read by {args.command}")

    def pick(name: str, default=None):
        value = getattr(args, name, None)
        if value is None and name in file_values:
            value = _cast(CONFIG_TYPES[name], file_values[name], f"config value {name}")
        return default if value is None else value

    def pick_range(name: str, default: Optional[float]) -> dict:
        # a flag beats every config key; a fixed value and its range ends
        # exclude each other among the flags, as among the keys
        lo, hi = f"{name}_min", f"{name}_max"
        fixed = getattr(args, name, None)
        ends_given = getattr(args, lo, None) is not None or getattr(args, hi, None) is not None
        if fixed is not None and ends_given:
            raise DomainError(f"--{name} excludes --{name}-min and --{name}-max")
        if fixed is None and not ends_given:
            fixed = pick(name)
        if fixed is not None:
            return {lo: fixed, hi: fixed}
        return {lo: pick(lo, default), hi: pick(hi, default)}

    seed = pick("seed")
    # read only by the one command that draws, and only when flag and file are silent
    if seed is None and args.command == "simulate" and "CHANCAP_SEED" in os.environ:
        seed = _cast(int, os.environ["CHANCAP_SEED"], "CHANCAP_SEED")
    lam, p = SIMULATE_AT if args.command == "simulate" else (None, None)
    values = {"seed": seed, **pick_range("lambda", lam), **pick_range("p", p)}
    for field in fields(RunConfig):
        if field.name in CONFIG_TYPES and field.name not in values:
            values[field.name] = pick(field.name)
    cfg = RunConfig(
        command=args.command,
        emit_plot_script=bool(getattr(args, "emit_plot_script", False)),
        only=getattr(args, "only", None),
        **{name: value for name, value in values.items() if value is not None},
    )
    if cfg.command == "sweep" and cfg.scenario != "custom":
        for name in CUSTOM_SWEEP_FLAGS:
            if getattr(args, name, None) is not None:
                raise DomainError(
                    f"{_flag(name)} applies only to --scenario custom, not {cfg.scenario}"
                )
            if name in file_values:
                raise DomainError(
                    f"config key {name} = {file_values[name]!r} applies only to "
                    f"sweep --scenario custom, not {cfg.scenario}"
                )
    cfg.validate()
    return cfg


def _overwrite(path: str, blocks: Iterable[str]) -> None:
    """Write ``blocks`` of text over ``path`` in place, one ``write`` per block.

    A file truncated to zero and rewritten is flushed on close (ext4
    ``auto_da_alloc``), and its next truncation waits for that flush.  So the
    file is opened without ``O_TRUNC`` and, when it is a regular file
    (``/dev/null`` and FIFOs refuse ``ftruncate``), cut where the bytes
    written so far end: after the text, or after the part of it written
    before a failed write, so that no byte of the old file is left behind.
    """
    with open(path, "w", encoding="utf-8", newline="\n",
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        fd = fh.fileno()
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            for block in blocks:
                fh.write(block)
            fh.flush()
        finally:
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write(cfg: RunConfig, blocks: Iterable[str], plot_columns: Optional[tuple] = None) -> None:
    """Write ``blocks`` of text, one ``write`` per block, to ``--out`` or stdout.

    The target is opened before the first block is read, so whatever can
    refuse the run runs before this call, not in the blocks.
    """
    if cfg.out is None:
        for block in blocks:
            sys.stdout.write(block)
    else:
        _overwrite(cfg.out, blocks)
    if cfg.emit_plot_script and plot_columns:
        script = output.gnuplot_script(os.path.basename(cfg.out), plot_columns)
        _overwrite(cfg.out + ".gp", [script])


def cmd_verify(cfg: RunConfig) -> int:
    results = verify_mod.run_checks(only=cfg.only)
    if not results:
        print(f"no checks match filter {cfg.only!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    lines = []
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'} {r.name} {r.residual:.6e}"
        if r.detail and not r.passed:
            line += f"  ({r.detail})"
        lines.append(line)
    failures = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _write(cfg, ["\n".join(lines) + "\n"])
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.scenario == "custom":
        curve = cap.custom_curve(cfg.lambda_min, cfg.lambda_max, cfg.p_min, cfg.p_max)
    else:
        curve = CURVES[cfg.scenario]
    points = cap.sweep(curve, cfg.points)
    # rendered block by block as it is written, so memory follows the table, not its text
    if cfg.format == "json":
        blocks = output.sweep_json_blocks(points, {**curve.meta(), **STAMP})
    else:
        blocks = output.sweep_csv_blocks(points)
    _write(cfg, blocks, plot_columns=points.columns)
    return EXIT_OK


def cmd_seq(cfg: RunConfig) -> int:
    items, meta = cap.default_sequence(cfg.terms)
    meta.update(STAMP)
    rows = [asdict(it) for it in items]
    text = (output.rows_json(rows, meta) if cfg.format == "json"
            else output.rows_csv(output.SEQ_HEADER, rows, meta))
    _write(cfg, [text], plot_columns=tuple(output.SEQ_HEADER.split(",")))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    lam, p = cfg.lambda_min, cfg.p_min
    rows = []
    for kind, (module, run, capacity) in PROTOCOLS.items():
        if cfg.kind not in (kind, "both"):
            continue
        simulate, target = getattr(module, run), getattr(module, capacity)
        # the second value is the two-way run's std error, or the wiretap run's leakage
        estimate, second = simulate(lam, p, cfg.uses, cfg.seed)
        rows.append({
            "kind": kind, "lambda": lam, "p": p, "uses": cfg.uses, "seed": cfg.seed,
            "estimate": estimate, "std_error": cap.bernoulli_std_error(lam, cfg.uses),
            "target": target(lam), "leakage": second if kind == "wiretap_feedback" else None,
        })
    if not rows:
        raise DomainError(f"unknown simulation kind {cfg.kind!r}")
    text = (output.rows_json(rows, STAMP) if cfg.format == "json"
            else output.rows_csv(output.SIM_HEADER, rows))
    _write(cfg, [text])
    return EXIT_OK


COMMANDS = {"verify": cmd_verify, "sweep": cmd_sweep, "seq": cmd_seq, "simulate": cmd_simulate}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Capacity workbench for the glued identity/dephasing-complement "
        "channel family and its classical wiretap analogue.",
    )
    parser.add_argument("--version", action="version", version=f"chancap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p: argparse.ArgumentParser, name: str, *aliases: str, **kwargs) -> None:
        # the long flag of config key ``name``, typed as the config file types it
        p.add_argument(_flag(name), *aliases, dest=name, type=CONFIG_TYPES[name], **kwargs)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file of 'key = value' lines (flags win)")
    setting(common, "out", "-o", help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    p_verify.add_argument("--only", help="run only checks whose name contains this substring")

    p_sweep = sub.add_parser("sweep", parents=[common], help="emit a capacity-curve data file")
    setting(p_sweep, "scenario", choices=SCENARIOS,
            help=f"curve to sweep (default {RunConfig.scenario})")
    setting(p_sweep, "points", help=f"grid size (default {RunConfig.points})")
    for name in ("lambda_min", "lambda_max", "p_min", "p_max"):
        setting(p_sweep, name)
    setting(p_sweep, "lambda", help="fix lambda (custom sweeps)")
    setting(p_sweep, "p", help="fix p (custom sweeps)")
    p_sweep.add_argument(
        "--emit-plot-script", action="store_true", help="also write a gnuplot script"
    )

    p_seq = sub.add_parser("seq", parents=[common], help="emit the alternating-bounds sequence")
    setting(p_seq, "terms", help=f"number of terms (default {RunConfig.terms}, max {MAX_TERMS})")
    p_seq.add_argument("--emit-plot-script", action="store_true")

    p_sim = sub.add_parser("simulate", parents=[common], help="run the Monte Carlo protocols")
    setting(p_sim, "kind", choices=(*PROTOCOLS, "both"), help="protocol(s)")
    setting(p_sim, "lambda", help=f"flag weight (default {SIMULATE_AT[0]})")
    setting(p_sim, "p", help=f"dephasing weight (default {SIMULATE_AT[1]})")
    setting(p_sim, "uses", help=f"channel uses (default {RunConfig.uses})")
    setting(p_sim, "seed", help=f"RNG seed (default: $CHANCAP_SEED or {RunConfig.seed})")
    # verify writes a text report; the data commands choose their format
    for p in (p_sweep, p_seq, p_sim):
        setting(p, "format", choices=FORMATS, help=f"output format (default {RunConfig.format})")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed help, the version or a usage error
        return exc.code
    try:
        cfg = _resolve(args)
        return COMMANDS[cfg.command](cfg)
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
