import argparse
import hashlib
import json

import numpy as np
import pytest

from chancap import capacity as cap
from chancap import output
from chancap import wiretap as wt
from chancap.cli import CONFIG_TYPES, build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_only_filter(capsys):
    code, out, _ = run(["verify", "--only", "degradable"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all("degradable" in ln for ln in lines)
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_unknown_filter(capsys):
    code, _, err = run(["verify", "--only", "no_such_check"], capsys)
    assert code == 2
    assert "no checks match" in err


def test_verify_full_run_lists_all_checks(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("PASS ")]
    assert len(lines) >= 25
    assert out.splitlines()[-1].endswith("checks passed")


def test_verify_out_writes_the_report(tmp_path, capsys):
    code, printed, _ = run(["verify", "--only", "degradable"], capsys)
    assert code == 0
    path = tmp_path / "verify.txt"
    code, out, _ = run(["verify", "--only", "degradable", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text() == printed


def test_verify_json_format_exits_2(tmp_path, capsys):
    code, out, err = run(["verify", "--only", "degradable", "--format", "json"], capsys)
    assert code == 2 and out == ""
    assert "json" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    code, out, err = run(["verify", "--only", "degradable", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "json" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    from chancap import verify as verify_mod

    def broken():
        return verify_mod.CheckResult("capacity.degradable_composition", False, 1.0, 0.0)

    monkeypatch.setattr(
        verify_mod, "_REGISTRY", [(("capacity.degradable_composition",), broken)]
    )
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    assert out.startswith("FAIL capacity.degradable_composition")


def test_sweep_fig3_stdout(capsys):
    code, out, _ = run(["sweep", "--scenario", "fig3", "--points", "10"], capsys)
    assert code == 0
    header, rows = output.parse_csv(out)
    assert header == ["x", "lambda", "p", "one_way", "two_way", "lower_bound", "upper_bound"]
    assert rows[0][0] == 0.25
    assert abs(rows[0][3] - 0.5) < 1e-12
    assert abs(rows[0][4] - 0.75) < 1e-12
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)


def test_sweep_fig6_headers_and_endpoint(capsys):
    code, out, _ = run(["sweep", "--scenario", "fig6", "--points", "10"], capsys)
    assert code == 0
    header, rows = output.parse_csv(out)
    assert header == ["x", "lambda", "p", "one_way", "two_way"]
    assert abs(rows[-1][3] - 0.806574) < 1e-6
    assert abs(rows[-1][4] - 0.806574) < 1e-6


def test_a_curve_without_bounds_writes_the_columns_its_rows_fill():
    # a Curve declares no columns: the writers take them from the sweep table
    curve = cap.Curve(wt.FIG6.x_range, wt.FIG6.params, wt.FIG6.row, dict)
    points = cap.sweep(curve, 3)
    five = ["x", "lambda", "p", "one_way", "two_way"]
    assert output.sweep_csv(points).splitlines()[0] == ",".join(five)
    assert sorted(json.loads(output.sweep_json(points, {}))["rows"][0]) == sorted(five)
    assert cap.sweep(cap.FIG3, 3).columns == cap.SWEEP_COLUMNS


def test_sweep_custom_uncertified_column_empty(capsys):
    code, out, _ = run(
        ["sweep", "--scenario", "custom", "--lambda-min", "0.5", "--lambda-max", "1",
         "--p", "0.1", "--points", "4"],
        capsys,
    )
    assert code == 0
    _, rows = output.parse_csv(out)
    assert rows[0][3] is not None  # lambda = 0.5 is still certified
    assert all(r[3] is None for r in rows[1:])
    assert all(r[5] is not None and r[6] is not None for r in rows)


def test_sweep_json_meta(capsys):
    code, out, _ = run(["sweep", "--scenario", "fig4", "--points", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["scenario"] == "fig4"
    assert "log2" in doc["meta"]["lambda_of_p"]
    assert "strictly decrease" in doc["meta"]["log_base_note"]
    assert doc["meta"]["version"]
    assert len(doc["rows"]) == 5
    assert doc["rows"][-1]["one_way"] == 0.5
    for column in ("one_way", "two_way"):
        values = [row[column] for row in doc["rows"]]
        assert all(b < a for a, b in zip(values, values[1:])), column

    code, out, _ = run(["sweep", "--scenario", "fig6", "--points", "5", "--format", "json"], capsys)
    doc = json.loads(out)
    assert 0.86 < doc["meta"]["slope_crossover_p"] < 0.87


def test_sweep_byte_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--scenario", "fig3", "--points", "25", "--out", str(a)]) == 0
    assert main(["sweep", "--scenario", "fig3", "--points", "25", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_roundtrip(tmp_path):
    path = tmp_path / "fig3.csv"
    assert main(["sweep", "--scenario", "fig3", "--points", "40", "--out", str(path)]) == 0
    _, rows = output.parse_csv(path.read_text())
    for x, lam, p, one_way, two_way, lower, upper in rows:
        assert lam == x
        assert abs(p - (4.0 * lam - 1.0)) < 1e-15
        assert one_way == cap.one_way_capacity(lam, p)
        assert two_way == cap.two_way_capacity(lam)
        assert lower == cap.coherent_info_lower_bound(lam, p)
        assert upper == cap.continuity_upper_bound(lam, p)


def test_seq_rows_and_meta(tmp_path, capsys):
    code, out, _ = run(["seq", "--terms", "5"], capsys)
    assert code == 0
    meta_lines = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("upper_crossing" in ln for ln in meta_lines)
    assert any("nominal_range_end" in ln for ln in meta_lines)
    header, rows = output.parse_csv(out)
    assert header == ["n", "x_n", "q_lb", "q_ub", "q_two_way"]
    assert len(rows) == 5
    xs = [r[1] for r in rows]
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_seq_single_term_matches_definition(capsys):
    code, out, _ = run(["seq", "--terms", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    [row] = doc["rows"]
    items, meta = cap.default_sequence(1)
    assert row["x_n"] == items[0].x_n
    # defining property: x_1 = t/2 where the upper bound at t meets the lower
    # bound at the range end
    q_lb, q_ub, _ = cap.sequence_bound_curves()
    target = q_lb(meta["b_used"])
    assert abs(q_ub(2.0 * row["x_n"]) - target) <= 1e-9 * target


def test_seq_term_limits(capsys):
    code, _, err = run(["seq", "--terms", "70"], capsys)
    assert code == 2 and "terms" in err
    # deep sequences underflow the parameter range: precondition, exit 2
    code, _, err = run(["seq", "--terms", "20"], capsys)
    assert code == 2
    assert "underflow" in err


def test_seq_terms_contract_is_five(capsys):
    code, out, _ = run(["seq", "--terms", "5"], capsys)
    assert code == 0 and len(output.parse_csv(out)[1]) == 5
    code, out, err = run(["seq", "--terms", "6"], capsys)
    assert code == 2 and out == ""
    assert "--terms must lie in [1, 5]" in err


@pytest.mark.parametrize("ranges", [
    ("--lambda-min", "0.8", "--lambda-max", "0.2", "--p-min", "0", "--p-max", "1"),
    ("--lambda-min", "0.1", "--lambda-max", "0.9", "--p-min", "0.7", "--p-max", "0.3"),
])
def test_custom_sweep_fixed_range_exits_2(ranges, capsys):
    code, out, err = run(["sweep", "--scenario", "custom", "--points", "3", *ranges], capsys)
    assert code == 2 and out == ""
    assert ("fixes lambda" if ranges[1] == "0.8" else "fixes p") in err


def test_simulate_outputs(tmp_path):
    path = tmp_path / "sim.csv"
    argv = ["simulate", "--lambda", "0.3", "--p", "0.1", "--uses", "20000",
            "--seed", "7", "--out", str(path)]
    assert main(argv) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,lambda,p,uses,seed,estimate,std_error,target,leakage"
    assert len(lines) == 3
    quantum = lines[1].split(",")
    wiretap = lines[2].split(",")
    assert quantum[0] == "quantum_two_way" and quantum[-1] == ""
    assert wiretap[0] == "wiretap_feedback" and float(wiretap[-1]) <= 1e-2
    assert abs(float(quantum[5]) - 0.7) <= 3 * float(quantum[6])
    assert float(quantum[7]) == 0.7

    # byte determinism for the same seed
    path2 = tmp_path / "sim2.csv"
    assert main(argv[:-1] + [str(path2)]) == 0
    assert path.read_bytes() == path2.read_bytes()


def test_simulate_json(capsys):
    code, out, _ = run(
        ["simulate", "--kind", "wiretap_feedback", "--lambda", "0.2", "--p", "0.3",
         "--uses", "5000", "--seed", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    [row] = doc["rows"]
    assert row["kind"] == "wiretap_feedback"
    assert row["target"] == 0.8
    assert row["leakage"] <= 1e-2
    assert doc["meta"]["version"]


def test_simulate_config_zero_parameters_are_kept(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda_min = 0\np_min = 0\n")
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--uses", "1000", "--out", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [(float(row[1]), float(row[2])) for row in rows] == [(0.0, 0.0), (0.0, 0.0)]


def test_malformed_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CHANCAP_SEED", "abc")
    code, _, err = run(["simulate", "--uses", "1000"], capsys)
    assert code == 2
    assert "CHANCAP_SEED" in err
    # a seed flag wins, so the environment is never read
    code, _, _ = run(["simulate", "--uses", "1000", "--seed", "5"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--only", "degradable"],
        ["seq", "--terms", "1"],
        ["sweep", "--scenario", "fig3", "--points", "2"],
    ],
    ids=["verify", "seq", "sweep"],
)
def test_env_seed_is_read_only_by_simulate(argv, monkeypatch, capsys):
    # a command that draws nothing never reads CHANCAP_SEED, so a bad one is harmless
    monkeypatch.delenv("CHANCAP_SEED", raising=False)
    code, expected, _ = run(argv, capsys)
    assert code == 0
    monkeypatch.setenv("CHANCAP_SEED", "abc")
    code, out, err = run(argv, capsys)
    assert code == 0 and out == expected and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--seed", "9"],
        ["sweep", "--seed", "4"],
        ["verify", "--only", "degradable", "--format", "csv"],
    ],
    ids=["seq-seed", "sweep-seed", "verify-format"],
)
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_malformed_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = abc\n")
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "points" in err


def test_default_output_digests(capsys, monkeypatch):
    monkeypatch.delenv("CHANCAP_SEED", raising=False)
    # seq and the fig6 crossover in the JSON meta both come out of a bisection
    expected = {
        ("seq",): "315d40e4c0366f0c83612d0ffa028aa17b290e1759b84020c0a07a667a41f4df",
        ("seq", "--format", "json"):
            "bb9fd835b604c892a9cc27939c0d9606d234e4f656c45009fd8359dbfb96ef8f",
        # each protocol alone at the default lambda, p, uses and seed
        ("simulate", "--kind", "quantum_two_way"):
            "0f424dc45eff6e40c7cc3399d9a19c149d9fbbf700961ee848229c56655ac966",
        ("simulate", "--kind", "quantum_two_way", "--format", "json"):
            "7e59ffa5bc80aba82f239349fb80aa8ddeba59857f39d857c4f7a55621e61b4a",
        ("simulate", "--kind", "wiretap_feedback"):
            "62d43b11583f3e8a5d8d1b5f713e13bed8b574dd7ca5131c007ad2f6a8efbdae",
        ("simulate", "--kind", "wiretap_feedback", "--format", "json"):
            "43654df1892ea0f772c3f3b2ea450c28f6cfb63562cda4a6c1060b6e1d9b85df",
        ("sweep", "--scenario", "fig6", "--format", "json"):
            "9410f92cd34235558633801d59d2395f011cec6362cc34c89e4dd6b095edbbb7",
        ("sweep", "--scenario", "fig6"):
            "b778b226a5633641b8e2433a39b163b9cfc5910836f3aaa54448182999baeac0",
        ("sweep", "--scenario", "fig3"):
            "9b31f008fd58a11ed5c87edb6fe610d232ed2f7474e76ab48f32e9ee4cce9474",
        ("sweep", "--scenario", "fig3", "--format", "json"):
            "ade95b68a1bdfb5fcf1a090fad5238787b93d46ac788fefb5b8c5b209430d584",
        ("sweep", "--scenario", "fig4"):
            "0e55b00b3d3595dd7f30c59f1654a40eb01497152f5164c61df738c952da7353",
        ("sweep", "--scenario", "fig4", "--format", "json"):
            "8ce4e150c5f603245f9cd3e8165b1b90c503e3b3b0ff5df47e21e6a9cdb44034",
        # a lambda sweep across 1/2 (one-way column ends) and a p sweep at lambda > 1/2
        ("sweep", "--scenario", "custom", "--lambda-min", "0.1", "--lambda-max", "0.9",
         "--p", "0.2"):
            "c0488572d54fb85957616a7fc4789500807a2d23eaff1e1f0e66680a9c7bac77",
        ("sweep", "--scenario", "custom", "--lambda-min", "0.1", "--lambda-max", "0.9",
         "--p", "0.2", "--format", "json"):
            "d1b571e5e7b44760c39d88ecf583a2770560d2c182a8885fa26efe4f171a6390",
        ("sweep", "--scenario", "custom", "--lambda", "0.7", "--p-min", "0", "--p-max", "1"):
            "560cb16b1a1182d46c97c118ac22c58b8def0696891ca96d8fa12e8f80867622",
        ("sweep", "--scenario", "custom", "--lambda", "0.7", "--p-min", "0", "--p-max", "1",
         "--format", "json"):
            "39247b86863cf713b6a86cd1be65840516ed1db18d85a96c1704140d818d9000",
        # both protocols at three seeds and two (lambda, p) pairs pin the Philox streams
        **{
            ("simulate", "--kind", "both", "--lambda", lam, "--p", p, "--uses", "20000",
             "--seed", seed, "--format", fmt): digest
            for (lam, p, seed, fmt), digest in {
                ("0.3", "0.1", "0", "csv"):
                    "da169284c7c3cb497e6ab1d2a2711a8cfdac3c9195c623a2b33f8dd884bf52cf",
                ("0.3", "0.1", "0", "json"):
                    "108a816acd7ccd01ba67f1de87391483609dbacaf7fc81e453c2e573e7c3b070",
                ("0.45", "0.8", "0", "csv"):
                    "e292c931da8b5fde16c3db1b7c9ff89dc4a8e1126dee264ddd78e2a65db1128b",
                ("0.45", "0.8", "0", "json"):
                    "219f7f8f1dddb7e0abd75ff807891b6a44b7fc3311a72d7c85b83a7432e90db6",
                ("0.3", "0.1", "7", "csv"):
                    "45afa47ab508e34b05df349645b3e4c9e5faaa5b87a4e522bbd28953e24a4d03",
                ("0.3", "0.1", "7", "json"):
                    "a33391305ccb9788a8f29af66a4864a37d36dec69b39857cd6dafca8787cdd28",
                ("0.45", "0.8", "7", "csv"):
                    "4bd358eb0203bed895194bb81966e765efe2256bb7824f877819ce182b78fce6",
                ("0.45", "0.8", "7", "json"):
                    "000352b1c78897dc527bbd3b6da84a9e9c68a5f6579a8f81b1a55eb8f824f7b1",
                ("0.3", "0.1", "12345", "csv"):
                    "413378e95fa9c4b1c098bbb05a039ef0e37fffcad7d35d9a17b8295684252c40",
                ("0.3", "0.1", "12345", "json"):
                    "c8dee3cebf06dafccdb8adb0c344d6ec209d21532f9b5dc2052e556f291a2d95",
                ("0.45", "0.8", "12345", "csv"):
                    "a16a7762d06f3ef26f2c3899134c95a1b956959a8291d728ffb532bdd85fbaf3",
                ("0.45", "0.8", "12345", "json"):
                    "bd425195f659ee0cc804231cb9b135051bca440def4ce82adb599a3cb8276f3f",
            }.items()
        },
    }
    for argv, digest in expected.items():
        code, out, _ = run(list(argv), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_simulate_env_seed(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("CHANCAP_SEED", "123")
    assert main(["simulate", "--kind", "quantum_two_way", "--uses", "5000", "--out", str(a)]) == 0
    monkeypatch.delenv("CHANCAP_SEED")
    assert main(["simulate", "--kind", "quantum_two_way", "--uses", "5000",
                 "--seed", "123", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_flags_take_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 7\nscenario = fig3\n# comment\n")
    out_a = tmp_path / "a.csv"
    assert main(["sweep", "--scenario", "fig3", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert len(out_a.read_text().strip().splitlines()) == 8  # header + 7 rows

    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--scenario", "fig3", "--config", str(cfg), "--points", "4",
                 "--out", str(out_b)]) == 0
    assert len(out_b.read_text().strip().splitlines()) == 5  # flag wins


def test_emit_plot_script(tmp_path):
    path = tmp_path / "fig6.csv"
    assert main(["sweep", "--scenario", "fig6", "--points", "10", "--out", str(path),
                 "--emit-plot-script"]) == 0
    script = (path.parent / "fig6.csv.gp").read_text()
    assert "set datafile separator" in script
    assert "fig6.csv" in script


@pytest.mark.parametrize(
    "scenario, flag",
    [("fig3", "--lambda"), ("fig4", "--p"), ("fig6", "--lambda-min"),
     ("fig3", "--lambda-max"), ("fig4", "--p-min"), ("fig6", "--p-max")],
)
def test_sweep_custom_only_flag_exits_2(scenario, flag, capsys):
    code, out, err = run(["sweep", "--scenario", scenario, "--points", "3", flag, "0.4"], capsys)
    assert code == 2 and out == ""
    assert flag in err


def test_fixed_value_and_range_flags_exit_2(capsys):
    code, out, err = run(["sweep", "--scenario", "custom", "--lambda", "0.3", "--lambda-min", "0.1",
                          "--lambda-max", "0.5", "--p-min", "0", "--p-max", "1"], capsys)
    assert code == 2 and out == ""
    assert "--lambda excludes" in err


@pytest.mark.parametrize(
    "extra", [["--format", "json", "--out", "fig6.json"], []], ids=["json", "stdout"]
)
def test_emit_plot_script_without_csv_file_exits_2(extra, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["sweep", "--scenario", "fig6", "--points", "3", "--emit-plot-script"]
                       + extra, capsys)
    assert code == 2
    assert "--emit-plot-script" in err
    assert list(tmp_path.iterdir()) == []


def test_config_lambda_and_p_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.9\np = 0.2\n")
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--uses", "1000", "--out", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [(float(row[1]), float(row[2])) for row in rows] == [(0.9, 0.2), (0.9, 0.2)]
    # flags win over the config keys
    assert main(["simulate", "--config", str(cfg), "--uses", "1000", "--lambda", "0.3",
                 "--out", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [(float(row[1]), float(row[2])) for row in rows] == [(0.3, 0.2), (0.3, 0.2)]
    # a range flag also wins over the fixed-value key
    out = tmp_path / "custom.csv"
    assert main(["sweep", "--scenario", "custom", "--config", str(cfg), "--lambda-min", "0.1",
                 "--lambda-max", "0.4", "--points", "4", "--out", str(out)]) == 0
    _, sweep_rows = output.parse_csv(out.read_text())
    assert [r[1] for r in sweep_rows] == [float(v) for v in np.linspace(0.1, 0.4, 4)]
    assert all(r[2] == 0.2 for r in sweep_rows)


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.9\nbogus = 1\n")
    code, out, err = run(["simulate", "--config", str(cfg), "--uses", "1000"], capsys)
    assert code == 2 and out == ""
    assert "bogus" in err and ":2:" in err


def test_config_scenario_is_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = fig6\npoints = 3\n")
    code, out, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    header, _ = output.parse_csv(out)
    assert header == ["x", "lambda", "p", "one_way", "two_way"]
    cfg.write_text("scenario = fig5\n")
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2 and "fig5" in err


def test_domain_errors_exit_2(capsys):
    code, _, err = run(["sweep", "--scenario", "custom", "--lambda-min", "0.5",
                        "--lambda-max", "2.0", "--p", "0.1"], capsys)
    assert code == 2
    code, _, _ = run(["sweep", "--scenario", "fig3", "--points", "1"], capsys)
    assert code == 2


def test_io_errors_exit_3(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "out.csv"
    code, _, err = run(["sweep", "--scenario", "fig3", "--out", str(missing_dir)], capsys)
    assert code == 3
    assert "i/o error" in err


def test_parser_dests_are_the_config_keys():
    # every long flag but --config, --only and --emit-plot-script is a config key of its dest
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        action.dest
        for sub in subparsers.choices.values()
        for action in sub._actions
        if any(opt.startswith("--") for opt in action.option_strings)
    }
    assert dests - {"help", "config", "only", "emit_plot_script"} == set(CONFIG_TYPES)


def test_config_unknown_kind_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = bogus\n")
    code, out, err = run(["simulate", "--config", str(cfg), "--uses", "1000"], capsys)
    assert code == 2 and out == ""
    assert "unknown simulation kind 'bogus'" in err


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["seq", "--terms", "1"], "uses = 5\nkind = both\n", ("uses", "'5'", "seq")),
        (["verify", "--only", "degradable"], "uses = 5\nkind = both\n",
         ("uses", "'5'", "verify")),
        (["sweep", "--scenario", "fig3", "--points", "3"], "lambda = 0.3\n",
         ("lambda", "'0.3'", "sweep", "custom", "fig3")),
        (["seq"], "seed = abc\n", ("seed", "'abc'", "seq")),
        (["simulate", "--uses", "1000"], "lambda_max = 0.9\n",
         ("lambda_max", "'0.9'", "simulate")),
    ],
    ids=["seq-uses-kind", "verify-uses-kind", "sweep-fixed-lambda", "seq-seed",
         "simulate-lambda-max"],
)
def test_config_keys_a_command_does_not_read_exit_2(argv, text, named, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "config key" in err and all(word in err for word in named), err
