"""Machine-readable export: CSV and JSON writers for sweeps, sequences, sims.

All writers are pure string builders so output files are byte-deterministic
for a fixed (config, seed, version).  A sweep is also rendered in blocks of
rows (``sweep_csv_blocks``, ``sweep_json_blocks``), so that a file can be
written in memory that follows the table, not its text; the whole-text
writers join the same blocks.  CSV floats carry 17 significant digits,
enough for exact float64 round-trips.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from itertools import chain
from typing import Optional

from .capacity import SweepTable

SIM_HEADER = "kind,lambda,p,uses,seed,estimate,std_error,target,leakage"
SEQ_HEADER = "n,x_n,q_lb,q_ub,q_two_way"
_BLOCK_ROWS = 1024  # sweep rows rendered per block


def fmt(x: Optional[float]) -> str:
    """17-significant-digit decimal rendering; empty for missing values."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _sweep_rows(points: SweepTable, keys: Sequence[str], row: str, sep: str,
                absent: str) -> Iterator[str]:
    """``row % values`` for each row of the table's columns ``keys``, joined by
    ``sep``, in blocks of ``_BLOCK_ROWS`` rows; each block after the first
    starts with ``sep``.

    Only an absent one-way value is NaN in a sweep table, and neither a finite
    float nor a column name contains the letters "nan", so one replace per
    block writes ``absent`` there.
    """
    columns = [points.column(k) for k in keys]
    for start in range(0, len(points), _BLOCK_ROWS):
        cells = zip(*[c[start:start + _BLOCK_ROWS].tolist() for c in columns])
        block = sep.join([row % values for values in cells]).replace("nan", absent)
        yield sep + block if start else block


def sweep_csv_blocks(points: SweepTable) -> Iterator[str]:
    """The text of ``sweep_csv(points)`` as its header line, then blocks of rows."""
    columns = points.columns
    rows = _sweep_rows(points, columns, ",".join(["%.17g"] * len(columns)), "\n", "")
    return chain([",".join(columns) + "\n"], rows, ["\n"])


def sweep_csv(points: SweepTable) -> str:
    """CSV of a sweep table's ``columns``; absent values are empty."""
    return "".join(sweep_csv_blocks(points))


def sweep_json_blocks(points: SweepTable, meta: dict) -> Iterator[str]:
    """The text of ``sweep_json(points, meta)`` as its head, then blocks of rows.

    ``meta`` is rendered by this call, so a meta that ``json`` refuses raises here,
    before the first block is read.
    """
    keys = sorted(points.columns)
    row = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %r" for k in keys) + "\n    }"
    head = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
    rows = _sweep_rows(points, keys, row, ",\n", "null")
    return chain(['{\n  "meta": ' + head + ',\n  "rows": [\n'], rows, ["\n  ]\n}\n"])


def sweep_json(points: SweepTable, meta: dict) -> str:
    """JSON document ``{"meta": meta, "rows": [...]}`` of a sweep table's ``columns``.

    The bytes of ``json.dumps(doc, indent=2, sort_keys=True)``: ``meta`` goes
    through ``json``; each row fills one template of its sorted keys with
    ``repr`` of each float (what ``json`` writes for a finite float) or null.
    """
    return "".join(sweep_json_blocks(points, meta))


def _csv_row(cells) -> str:
    """One CSV line: strings and ints verbatim, floats through ``fmt``, None empty."""
    return ",".join(str(v) if isinstance(v, (str, int)) else fmt(v) for v in cells)


def rows_csv(header: str, rows: Sequence[dict], meta: Optional[dict] = None) -> str:
    """CSV of dict rows, each row's cells in ``header`` order, after one
    ``# key = value`` line per item of ``meta``, sorted."""
    keys = header.split(",")
    lines = [f"# {k} = {v}" for k, v in sorted((meta or {}).items())]
    lines += [header, *(_csv_row(r[k] for k in keys) for r in rows)]
    return "\n".join(lines) + "\n"


def rows_json(rows: Sequence[dict], meta: dict) -> str:
    """JSON document ``{"meta": meta, "rows": rows}``, indented, keys sorted."""
    return json.dumps({"meta": meta, "rows": list(rows)}, indent=2, sort_keys=True) + "\n"


def parse_csv(text: str) -> tuple[list[str], list[list[Optional[float]]]]:
    """Parse a CSV written by this module: (header, rows of floats/None)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row: list[Optional[float]] = []
        for cell in ln.split(","):
            row.append(float(cell) if cell else None)
        rows.append(row)
    return header, rows


def gnuplot_script(csv_name: str, columns: Sequence[str]) -> str:
    """Plotting companion of a sweep or sequence CSV, given its columns.

    Columns are referenced by position: a sweep plots every rate column
    (from ``one_way`` on) against x, the sequence its three values against
    x_n on a log axis.
    """
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'x'",
        "set ylabel 'rate (bits/use)'",
    ]
    if ",".join(columns) == SEQ_HEADER:
        lines.append("set logscale x")
        plots = [f"using 2:{i} with points" for i in range(3, len(columns) + 1)]
    else:
        plots = [f"using 1:{i} with lines" for i in range(4, len(columns) + 1)]
    lines.append(f"plot '{csv_name}' " + ", '' ".join(plots))
    return "\n".join(lines) + "\n"
