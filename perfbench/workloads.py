"""The three benchmark workloads: input generation, one timed pass, output checks.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned.  ``setup`` builds every input from the seed
before the pass timer starts; ``run_pass`` times the calls into chancap's
public API; ``check`` validates the recorded outputs afterwards, outside the
timer, by routes independent of the code under test.

Why these workloads:

* ``verify-full`` runs the 37-check registry, the time-to-evidence run of
  every reproduction session.  Optimizers and batched eigendecompositions
  dominate it.
* ``state-eval`` streams validated single-state calls at the public boundary,
  where per-call validation and small eigendecompositions dominate and no
  optimizer runs.
* ``exports`` drives the CLI data products in-process.  It does no
  eigendecomposition: its time goes to closed forms, row validation, the
  writers and Philox sampling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# thresholds of the matching chancap verify checks
ENTROPY_TOL = 1e-10       # channels.entropy_decomposition_*, qmath.entropy_*
CONJUGATION_TOL = 1e-9    # capacity.pauli_conjugation_invariance
CHOI_IC_TOL = 1e-10       # capacity.choi_state_ic_consistency
CLOSED_FORM_TOL = 1e-12   # relative; independent re-evaluation of exported rows
LEAKAGE_TOL = 1e-2        # wiretap.feedback_leakage_small


def binary_entropy(p: float) -> float:
    """H(p) in bits, written independently of chancap.qmath."""
    out = 0.0
    if p > 0.0:
        out -= p * math.log2(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log1p(-p) / math.log(2.0)
    return out


def entropy_bits(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def _timed(fn, *args):
    """Call fn, returning (elapsed seconds, result or the exception it raised)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # recorded and judged by check(); the loop keeps going
        out = exc
    return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# verify-full


class VerifyFull:
    """chancap.verify.run_checks() over the whole registry.

    The checks use the registry's own fixed seeds, so the workload seed
    changes nothing here.
    """

    name = "verify-full"

    def __init__(self, seed: int):
        from chancap import verify

        self.verify = verify
        self.names = verify.check_names()
        self.sizes = {"checks": len(self.names)}

    def run_pass(self, tracer=None) -> dict:
        t0 = time.perf_counter()
        if tracer is None:
            results = self.verify.run_checks()
        else:
            results = []
            for name in self.names:
                tracer.next_op()
                results += tracer.call(f"verify.{name}", self.verify.run_checks, only=name)
        pass_s = time.perf_counter() - t0
        return {"pass_s": pass_s, "results": results}

    def check(self, raw: dict) -> tuple[int, list[tuple]]:
        results = raw["results"]
        problems = [(r.name, f"residual {r.residual!r} > {r.threshold!r} {r.detail}")
                    for r in results if not r.passed]
        missing = set(self.names) - {r.name for r in results}
        problems += [(name, "no result") for name in sorted(missing)]
        return len(self.names), problems

    @staticmethod
    def metrics(raw: dict) -> dict:
        return {"verify_s": raw["pass_s"]}


# ---------------------------------------------------------------------------
# state-eval


def _ginibre_state(rng, dim: int, pure: bool = False) -> np.ndarray:
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _edge_or_uniform(rng) -> float:
    """λ or p: 0, 1/2 or 1 three times in ten, otherwise uniform on [0, 1].

    The share is a choice, not a measurement: it puts each of the nine
    (λ, p) edge pairs, where the channel degenerates (identity, full
    dephasing, pure flag states), into a few percent of the calls of every
    kind, while most calls stay at generic interior points.
    """
    if rng.random() < 0.3:
        return float(rng.choice((0.0, 0.5, 1.0)))
    return float(rng.uniform(0.0, 1.0))


class StateEval:
    """A seeded stream of validated single-state calls at the public boundary."""

    name = "state-eval"
    # Calls per pass by kind; the stream order is shuffled by the seed.  Each
    # accepted kind takes about the same share of the pass (about 0.25 s): the
    # count is 0.25 s over the kind's mean untraced latency, measured as
    # ic 730 us, conjugation 1530 us, choi_ic 175 us, entropy 108 us on a
    # 2-vCPU x86-64 VM with numpy 2.4 and one BLAS thread.  With equal time
    # shares, the same speed-up of any one kind moves ic_evals_per_s by the
    # same amount.  Malformed inputs are a fixed 5 % of the calls.
    MIX = {"ic": 340, "conjugation": 165, "choi_ic": 1430, "entropy": 2300, "malformed": 225}
    MALFORMED = ("non_hermitian", "trace", "negative_eigenvalue", "nan", "lambda")

    def __init__(self, seed: int):
        from chancap import capacity, channels, errors, qmath

        self.cap, self.chn, self.qmath = capacity, channels, qmath
        self.expected_error = {
            "non_hermitian": errors.NonHermitian,
            "trace": errors.NotAState,
            "negative_eigenvalue": errors.NotAState,
            "nan": errors.NonHermitian,
            "lambda": errors.DomainError,
        }
        rng = np.random.default_rng([seed, 0x57A7E])
        kinds = [k for k, n in self.MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        self._malformed_made = 0
        self.ops = [self._make(kind, i, rng) for i, kind in enumerate(kinds)]
        self.kinds = kinds
        self.sizes = dict(self.MIX, calls=len(self.ops), entropy_dims=[2, 16])

    def _make(self, kind: str, i: int, rng) -> tuple:
        lam, p = _edge_or_uniform(rng), _edge_or_uniform(rng)
        if kind == "entropy":
            return (kind, 2 + i % 15, _ginibre_state(rng, 2 + i % 15))
        if kind == "choi_ic":
            choi = self.chn.choi(self.chn.channel_N(lam, p)).state.matrix
            return (kind, lam, p, choi)
        if kind in ("ic", "conjugation"):
            return (kind, lam, p, _ginibre_state(rng, 2, pure=rng.random() < 0.2))
        bad = self.MALFORMED[self._malformed_made % len(self.MALFORMED)]
        self._malformed_made += 1
        rho = _ginibre_state(rng, 2)
        if bad == "non_hermitian":
            rho[0, 1] += 1e-6
        elif bad == "trace":
            rho = 1.1 * rho
        elif bad == "negative_eigenvalue":
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            rho = u @ np.diag([1.05, -0.05]) @ u.conj().T
        elif bad == "nan":
            rho[1, 1] = np.nan
        else:
            lam = float(rng.choice((-0.25, 1.5, np.nan)))
        # half of the bad states enter through the entropy, half through a channel
        entry = "entropy" if bad != "lambda" and rng.random() < 0.5 else "ic"
        return (kind, bad, entry, lam, p, rho)

    def _call(self, op: tuple):
        cap, chn, qm = self.cap, self.chn, self.qmath
        kind = op[0]
        if kind == "entropy":
            return qm.von_neumann_entropy(op[2])
        if kind == "choi_ic":
            return cap.coherent_information_state(op[3], (2, 4))
        if kind == "conjugation":
            return cap.ic_conjugation_residual(op[1], op[2], op[3])
        if kind == "ic":
            lam, p, rho = op[1], op[2], op[3]
            return cap.coherent_information(chn.channel_N(lam, p), chn.complement_N(lam, p), rho)
        _, bad, entry, lam, p, rho = op
        if entry == "entropy":
            return qm.von_neumann_entropy(rho)
        return cap.coherent_information(chn.channel_N(lam, p), chn.complement_N(lam, p), rho)

    def run_pass(self, tracer=None) -> dict:
        call = self._call
        latencies = np.empty(len(self.ops))
        outputs = []
        t0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.next_op()
            latencies[i], out = _timed(call, op)
            outputs.append(out)
        pass_s = time.perf_counter() - t0
        return {"pass_s": pass_s, "latencies": latencies, "outputs": outputs}

    def _ic_reference(self, lam: float, p: float, rho: np.ndarray) -> float:
        """(1-λ)H(ρ) + λ(H(D̄ρ) - H(Dρ)), the block decomposition of the IC."""
        a, b = math.sqrt(1.0 - p), math.sqrt(p)
        phi0, phi1 = np.array([a, b]), np.array([a, -b])
        dbar = rho[0, 0] * np.outer(phi0, phi0) + rho[1, 1] * np.outer(phi1, phi1)
        z = np.diag([1.0, -1.0])
        deph = (1.0 - p) * rho + p * (z @ rho @ z)
        return (1.0 - lam) * entropy_bits(rho) + lam * (entropy_bits(dbar) - entropy_bits(deph))

    def _problem(self, op: tuple, out) -> str | None:
        kind = op[0]
        if kind == "malformed":
            want = self.expected_error[op[1]]
            if not isinstance(out, want):
                return f"malformed {op[1]} via {op[2]}: expected {want.__name__}, got {out!r}"
            return None
        if isinstance(out, BaseException):
            return f"{kind} raised {type(out).__name__}: {out}"
        if kind == "entropy":
            err = abs(out - entropy_bits(op[2]))
            return None if err <= ENTROPY_TOL else f"entropy d={op[1]} off by {err:.3e}"
        if kind == "choi_ic":
            lam, p = op[1], op[2]
            err = abs(out - (1.0 - lam * (2.0 - binary_entropy(p))))
            return None if err <= CHOI_IC_TOL else f"choi IC (λ={lam}, p={p}) off by {err:.3e}"
        if kind == "conjugation":
            dz, dx = out
            ok = 0.0 <= dz <= CONJUGATION_TOL and 0.0 <= dx <= CONJUGATION_TOL
            return None if ok else f"Z/X residuals {dz:.3e}, {dx:.3e} (λ={op[1]}, p={op[2]})"
        err = abs(out - self._ic_reference(op[1], op[2], op[3]))
        return None if err <= ENTROPY_TOL else f"IC (λ={op[1]}, p={op[2]}) off by {err:.3e}"

    def check(self, raw: dict) -> tuple[int, list[tuple]]:
        problems = ((i, self._problem(op, out))
                    for i, (op, out) in enumerate(zip(self.ops, raw["outputs"])))
        return len(self.ops), [(i, p) for i, p in problems if p is not None]

    @staticmethod
    def metrics(raw: dict) -> dict:
        return {"ic_evals_per_s": len(raw["latencies"]) / raw["pass_s"]}

    def latencies_by_kind(self, raw: dict) -> dict[str, list[float]]:
        """Per-call latencies in microseconds, grouped by call kind."""
        out: dict[str, list[float]] = {kind: [] for kind in self.MIX}
        for kind, t in zip(self.kinds, raw["latencies"].tolist()):
            out[kind].append(round(t * 1e6, 3))
        return out


# ---------------------------------------------------------------------------
# exports


def _closed_form_rows(scenario: str, rows: np.ndarray) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(column, stored, re-evaluated) triples for every column of a sweep."""
    x, lam, p, one_way, two_way = (rows[:, j] for j in range(5))
    h = np.array([binary_entropy(v) for v in p])
    if scenario == "fig6":
        return [
            ("x", x, p),
            ("lambda", lam, p / (2.0 * np.log2(6.0 / p))),
            ("one_way", one_way, 1.0 - lam * (1.0 + h)),
            ("two_way", two_way, 1.0 - lam),
        ]
    lower, upper = rows[:, 5], rows[:, 6]
    eps = 4.0 * lam * np.sqrt(p * (1.0 - p))
    h_eps = np.array([binary_entropy(v) for v in eps / (2.0 + eps)])
    one = 1.0 - lam * (2.0 - h)
    checks = [
        ("two_way", two_way, 1.0 - lam),
        ("lower_bound", lower, np.maximum(0.0, one)),
        ("upper_bound", upper, np.minimum(1.0 - lam, 4.0 * eps + 2.0 * (2.0 + eps) * h_eps)),
    ]
    if scenario == "custom":
        certified = lam <= 0.5
        checks.append(("one_way", np.where(certified, one_way, 0.0), np.where(certified, one, 0.0)))
        checks.append(("one_way empty above 1/2", np.isnan(one_way), lam > 0.5))
        return checks
    checks.append(("one_way", one_way, one))
    if scenario == "fig3":
        checks += [("x", x, lam), ("p", p, 4.0 * lam - 1.0)]
    else:
        checks += [("x", x, p), ("lambda", lam, p / np.log2(1.0 / p))]
    return checks


class Exports:
    """The CLI data products, driven through chancap.cli.main in-process.

    The sweep phase writes fig3, fig4, fig6 and one custom sweep as CSV and
    JSON and parses every CSV back; the Monte Carlo phase runs both protocols
    for several seeds.  Their sizes are fixed in digests.json together with
    the SHA-256 of every CSV this commit writes; the workload seed picks one
    recorded configuration for the seeded parts (custom sweep, simulations).
    """

    name = "exports"
    SCENARIOS = ("fig3", "fig4", "fig6", "custom")

    def __init__(self, seed: int, out_dir: Path):
        from chancap import cli, output

        self.cli, self.output = cli, output
        spec = json.loads(DIGESTS.read_text())
        self.config = spec["pool"][seed % len(spec["pool"])]
        self.points, self.uses = spec["points"], spec["uses"]
        self.digests = dict(spec["common"], **self.config["digests"])
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out = out_dir
        self.sweeps = [(sc, fmt, self._path(f"sweep-{sc}.{fmt}"),
                        sweep_argv(sc, fmt, self.points, self.config["custom"],
                                   self._path(f"sweep-{sc}.{fmt}")))
                       for sc in self.SCENARIOS for fmt in ("csv", "json")]
        self.seq = (self._path("seq.csv"), ["seq", "--out", self._path("seq.csv")])
        self.sims = [(self._path(f"simulate-{i}.csv"),
                      simulate_argv(sim, self.uses, self._path(f"simulate-{i}.csv")))
                     for i, sim in enumerate(self.config["simulate"])]
        self.sizes = {
            "sweep_points": self.points,
            "sweep_rows": self.points * len(self.sweeps),
            "simulations": len(self.sims),
            "uses_per_protocol_run": self.uses,
            "pool_index": seed % len(spec["pool"]),
        }

    def measure_footprint(self) -> None:
        """Add the Monte Carlo phase's array bytes per protocol run to ``sizes``.

        Measured, not estimated: tracemalloc sees numpy's data buffers, and
        the peak of each simulate function at two sizes gives its bytes per
        channel use, which is scaled to the workload's ``--uses``.  Call it
        after the pass, so that the pass still starts with cold caches.
        """
        import tracemalloc

        from chancap import capacity, wiretap

        small, large = 1 << 16, 1 << 18
        sim = self.config["simulate"][0]
        per_run = {}
        for name, fn in (("two_way", capacity.simulate_two_way_protocol),
                         ("feedback", wiretap.simulate_feedback_protocol)):
            peaks = []
            for uses in (small, large):
                tracemalloc.start()
                fn(sim["lambda"], sim["p"], uses, sim["seed"])
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            per_use = (peaks[1] - peaks[0]) / (large - small)
            per_run[name] = {"bytes_per_use": round(per_use, 2),
                             "peak_bytes": int(per_use * self.uses)}
        self.sizes["mc_array_bytes"] = per_run

    def _path(self, name: str) -> str:
        return str(self.out / name)

    def run_pass(self, tracer=None) -> dict:
        # looked up here so that a traced pass calls the wrapped functions
        main, parse_csv = self.cli.main, self.output.parse_csv
        codes, parsed = {}, {}

        def cli_call(key, argv):
            if tracer is not None:
                tracer.next_op()
            codes[key] = _timed(main, argv)[1]

        t0 = time.perf_counter()
        for sc, fmt, _, argv in self.sweeps:
            cli_call(("sweep", sc, fmt), argv)
        for sc in self.SCENARIOS:
            if tracer is not None:
                tracer.next_op()
            text = Path(self._path(f"sweep-{sc}.csv")).read_text()
            parsed[sc] = _timed(parse_csv, text)[1]
        t1 = time.perf_counter()
        cli_call(("seq",), self.seq[1])
        t2 = time.perf_counter()
        for i, (_, argv) in enumerate(self.sims):
            cli_call(("simulate", i), argv)
        t3 = time.perf_counter()
        return {"pass_s": t3 - t0, "sweep_s": t1 - t0, "mc_s": t3 - t2,
                "codes": codes, "parsed": parsed}

    def _sweep_problems(self, sc: str, parsed) -> list[tuple]:
        csv_op, json_op = ("sweep", sc, "csv"), ("sweep", sc, "json")
        if isinstance(parsed, BaseException):
            return [(("parse", sc), f"parse_csv raised {parsed!r}")]
        header, rows = parsed
        problems = []
        doc = json.loads(Path(self._path(f"sweep-{sc}.json")).read_text())
        if [[r[k] for k in header] for r in doc["rows"]] != rows:
            problems.append((json_op, "JSON rows differ from CSV rows"))
        if len(rows) != self.points:
            return problems + [(csv_op, f"{len(rows)} rows, expected {self.points}")]
        table = np.array([[np.nan if v is None else v for v in r] for r in rows])
        for column, stored, fresh in _closed_form_rows(sc, table):
            if stored.dtype == bool:
                bad = int(np.count_nonzero(stored != fresh))
            else:
                scale = np.maximum(1.0, np.abs(fresh))
                bad = int(np.count_nonzero(~(np.abs(stored - fresh) <= CLOSED_FORM_TOL * scale)))
            if bad:
                problems.append((csv_op, f"{bad} rows fail the closed form of {column}"))
        return problems

    @staticmethod
    def _sim_problems(path: str) -> list[str]:
        """Each protocol estimate within 3σ of its target, wiretap leakage small."""
        lines = Path(path).read_text().splitlines()
        header = lines[0].split(",")
        problems = []
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            estimate, target = float(row["estimate"]), float(row["target"])
            if abs(estimate - target) > 3.0 * float(row["std_error"]):
                problems.append(f"{row['kind']}: |{estimate} - {target}| > 3 std errors")
            if row["kind"] == "wiretap_feedback" and not float(row["leakage"]) <= LEAKAGE_TOL:
                problems.append(f"wiretap leakage {row['leakage']} > {LEAKAGE_TOL}")
        if len(lines) != 3:
            problems.append(f"{len(lines) - 1} protocol rows, expected 2")
        return problems

    def check(self, raw: dict) -> tuple[int, list[tuple]]:
        problems = [(key, f"exit {code!r}") for key, code in raw["codes"].items() if code != 0]
        csvs = [(("sweep", sc, "csv"), f"sweep-{sc}.csv", path)
                for sc, fmt, path, _ in self.sweeps if fmt == "csv"]
        csvs += [(("seq",), "seq.csv", self.seq[0])]
        csvs += [(("simulate", i), f"simulate-{i}.csv", path)
                 for i, (path, _) in enumerate(self.sims)]
        for op, key, path in csvs:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest() if os.path.exists(path) else None
            if digest != self.digests[key]:
                problems.append((op, f"SHA-256 {digest} differs from the recorded digest"))
        for sc in self.SCENARIOS:
            problems += self._sweep_problems(sc, raw["parsed"][sc])
        for i, (path, _) in enumerate(self.sims):
            if os.path.exists(path):
                problems += [(("simulate", i), msg) for msg in self._sim_problems(path)]
        return len(raw["codes"]) + len(raw["parsed"]), problems

    def metrics(self, raw: dict) -> dict:
        return {
            "sweep_rows_per_s": self.points * len(self.sweeps) / raw["sweep_s"],
            "mc_uses_per_s": 2 * self.uses * len(self.sims) / raw["mc_s"],
        }


def sweep_argv(scenario: str, fmt: str, points: int, custom: dict, out: str) -> list[str]:
    argv = ["sweep", "--scenario", scenario, "--points", str(points), "--format", fmt, "--out", out]
    if scenario == "custom":
        argv += [f"--{k}={v!r}" for k, v in custom.items()]
    return argv


def simulate_argv(sim: dict, uses: int, out: str) -> list[str]:
    return ["simulate", "--kind", "both", f"--lambda={sim['lambda']!r}", f"--p={sim['p']!r}",
            "--uses", str(uses), "--seed", str(sim["seed"]), "--out", out]


WORKLOADS = {w.name: w for w in (VerifyFull, StateEval, Exports)}
