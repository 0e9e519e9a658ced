"""CLI tests: subcommand output schemas, determinism of emitted rows,
config-file precedence, and preset behavior."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylcdma import __version__
from weylcdma.cli import _write_sweep, main, run_preset
from weylcdma.sequences import AssignmentPolicy
from weylcdma.sim import SimConfig


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    return header, rows


def test_python_m_runs_the_command_line_from_a_checkout():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run([sys.executable, "-m", "weylcdma", "--version"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stdout.strip()) == (0, f"weylcdma {__version__}")


class TestGenerate:
    def test_weyl_chips(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--family", "weyl", "--rho", "0.5", "--n", "4"]
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["n", "re", "im"]
        assert [round(float(r[1])) for r in rows] == [-1, 1, -1, 1]

    def test_gold_chips_are_signs(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--family", "gold", "--index", "7"]
        )
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 31
        assert {round(float(r[1])) for r in rows} <= {-1, 1}

    def test_gold_length_other_than_built_in_rejected(self, capsys):
        for n in ("7", "63"):
            code, out, err = run_cli(capsys, ["generate", "--family", "gold", "--n", n])
            assert code == 1 and out == ""
            assert err == f"weylcdma: the built-in gold family has n_chips = 31, got {n}\n"
        code, out, _ = run_cli(capsys, ["generate", "--family", "gold", "--n", "31"])
        assert code == 0 and len(data_rows(out)[1]) == 31

    def test_fzc_r_none(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["generate", "--family", "fzc", "--mk", "1", "--p", "2", "--q", "1",
             "--r", "none", "--n", "3"],
        )
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 3

    def test_fzc_numeric_r(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "--family", "fzc", "--r", "2", "--n", "8"])
        assert code == 0
        assert "# tag=fzc(m=1,p=2,q=1,r=2)\n" in out and len(data_rows(out)[1]) == 8

    def test_invalid_parameters_exit_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys, ["generate", "--family", "weyl", "--rho", "1.5", "--n", "4"]
        )
        assert code == 1
        assert "rho" in err

    def test_non_finite_fzc_chips_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["generate", "--family", "fzc", "--q", "1000", "--n", "8"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("args", [["--mk", "1e200", "--p", "2"], ["--mk", "10", "--p", "400"],
                                      ["--mk", "0", "--p", "-1"]],
                             ids=["large-mk", "large-p", "zero-mk"])
    def test_fzc_overflow_rejected(self, capsys, args):
        code, out, err = run_cli(capsys, ["generate", "--family", "fzc", *args])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("weylcdma: m_k**p is not a finite real")

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_optimal_gamma_rejected(self, capsys, gamma):
        code, out, err = run_cli(capsys, ["generate", "--family", "optimal", "--gamma", gamma,
                                          "--n", "8"])
        assert code == 1 and out == ""
        assert err == f"weylcdma: gamma must be finite, got {gamma}\n"


class TestCorrelate:
    def test_antipodal_bound_column_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, ["correlate", "--rho-i", "0.2", "--rho-k", "0.7", "--n", "31"]
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["lag", "abs_c", "abs_theta", "abs_theta_hat", "bound"]
        assert len(rows) == 31
        assert all(float(r[4]) == 1.0 for r in rows)
        for r in rows:
            assert float(r[1]) <= float(r[4]) + 1e-9

    def test_degenerate_pair_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, ["correlate", "--rho-i", "0.3", "--rho-k", "0.3", "--n", "8"]
        )
        assert code == 1
        assert "coincide" in err


class TestSolve:
    def test_k7_report(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--k", "7", "--samples", "2000"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(fields["kkt_residual"]) < 1e-9
        assert fields["optimum_beaten"] == "False"
        rhos = [float(v) for v in fields["rho_star"].split(",")]
        assert len(rhos) == 7
        assert np.allclose(np.diff(rhos), 1 / 7)

    def test_output_bytes_pinned(self, capsys):
        # sha256 of the report before the falsifier pruned by bound: pruning changes no byte
        code, out, _ = run_cli(capsys, ["solve", "--k", "20", "--samples", "20000", "--seed", "5"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "47a6ededb55f8677ef67f486a8fb677a9175f199136581691cefa19d6fce676a"
        )

    def test_nonfinite_gamma_rejected(self, capsys):
        for gamma in ("nan", "inf"):
            code, out, err = run_cli(capsys, ["solve", "--k", "3", "--gamma", gamma])
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "gamma" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["solve", "--k", "3", "--seed", "-1"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("weylcdma: seed must be")


class TestSnr:
    def test_table_shape_and_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["snr", "--n", "31", "--k", "31", "--gamma", "0.0161", "--ebn0-db", "25"],
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["sigma", "gamma", "snr", "lower_bound"]
        assert len(rows) == 31
        for r in rows:
            assert float(r[3]) <= float(r[2]) + 1e-9

    def test_out_of_range_ebn0_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["snr", "--n", "31", "--k", "31", "--ebn0-db=4000"])
        assert code == 1 and out == ""
        assert "ebn0_db" in err

    def test_nonfinite_gamma_rejected(self, capsys):
        for gamma in ("nan", "inf"):
            code, out, err = run_cli(
                capsys, ["snr", "--n", "31", "--k", "4", "--gamma", gamma, "--ebn0-db", "25"]
            )
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "gamma" in err

    def test_huge_gamma_reads_its_fraction(self, capsys):
        # 1e308 is a whole number, so its slot phases are gamma = 0's
        tables = []
        for gamma in ("1e308", "0"):
            code, out, err = run_cli(
                capsys, ["snr", "--n", "31", "--k", "5", "--gamma", gamma, "--ebn0-db", "10"]
            )
            assert code == 0 and err == ""
            tables.append([(r[0], r[2], r[3]) for r in data_rows(out)[1]])
        assert tables[0] == tables[1]

    def test_single_user_without_noise_is_infinite(self, capsys):
        code, out, err = run_cli(capsys, ["snr", "--n", "31", "--k", "1", "--ebn0-db", "inf"])
        assert code == 0 and err == ""
        header, rows = data_rows(out)
        assert len(rows) == 31
        assert all(r[2] == "inf" and r[3] == "inf" for r in rows)

    def test_more_users_than_chips_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["snr", "--n", "31", "--k", "40", "--ebn0-db", "10"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "n_users" in err


class TestBerSweep:
    ARGS = [
        "ber-sweep", "--axis", "users", "--values", "2,3", "--family", "weyl",
        "--gamma", "0.03125", "--kmax", "16", "--policy", "random", "--n", "16",
        "--k", "2", "--ebn0-db", "20", "--trials", "400", "--seed", "7",
    ]

    def test_schema_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        code, out2, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        assert out1 == out2  # byte-identical rerun
        header, rows = data_rows(out1)
        assert header == [
            "axis_value", "family", "policy", "gamma", "kmax",
            "mean_ber", "wilson_lo", "wilson_hi", "bits",
        ]
        assert [r[0] for r in rows] == ["2", "3"]
        assert all(r[1] == "weyl" for r in rows)

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = dict(axis="users", values="2", family="weyl", gamma=0.03125, kmax=16,
                   policy="random", n=16, k=2, ebn0_db=20.0, trials=200, seed=7)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 1
        # a negative leading value and a null (the default) both pass through
        path.write_text(json.dumps(dict(cfg, axis="ebn0", values="-5,0", kmax=None)))
        code, out, _ = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 0
        _, rows = data_rows(out)
        assert [r[0] for r in rows] == ["-5", "0"] and rows[0][4] == "16"

    def test_cli_flags_override_config_file(self, tmp_path, capsys):
        cfg = dict(axis="users", values="2", family="weyl", gamma=0.03125, kmax=16,
                   policy="random", n=16, k=2, ebn0_db=20.0, trials=200, seed=7)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(
            capsys, ["ber-sweep", "--config", str(path), "--values", "2,3,4"]
        )
        assert code == 0
        _, rows = data_rows(out)
        assert [r[0] for r in rows] == ["2", "3", "4"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(values="2", sigma_mod="fixed")))
        code, out, err = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 1 and out == ""
        assert "sigma_mod" in err

    def test_config_values_checked_like_flags(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        for data, name in ((dict(values=[2, 3]), "'values'"), ([2, 3], "JSON object")):
            path.write_text(json.dumps(data))
            code, out, err = run_cli(capsys, ["ber-sweep", "--config", str(path)])
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("weylcdma: ") and name in err
        # argparse checks file values as it checks flags: usage, then one error line
        for cfg, flag in ((dict(values="2", n=31.5), "--n"),
                          (dict(values="2", policy="perTrial"), "--policy")):
            path.write_text(json.dumps(cfg))
            with pytest.raises(SystemExit) as exc:
                main(["ber-sweep", "--config", str(path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and flag in err.splitlines()[-1]

    def test_missing_values_rejected(self, capsys):
        for argv in (["ber-sweep", "--axis", "users"], ["ber-sweep", "--values", ""]):
            code, out, err = run_cli(capsys, argv)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("weylcdma: ber-sweep: --values")

    def test_non_numeric_value_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, ["ber-sweep", "--values", "2,abc"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--values" in err and "'2,abc'" in err

    @pytest.mark.parametrize("values", ["2,,4", "2,4,", ",2"])
    def test_empty_value_field_rejected(self, capsys, values):
        code, out, err = run_cli(capsys, ["ber-sweep", "--values", values])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--values" in err and repr(values) in err

    def test_fractional_users_rejected(self, capsys):
        args = list(self.ARGS)
        args[args.index("2,3")] = "2.5,3.9"
        code, out, err = run_cli(capsys, args)
        assert code == 1 and out == ""
        assert "whole numbers" in err

    def test_nan_ebn0_rejected(self, capsys):
        args = list(self.ARGS)
        args[args.index("users")] = "ebn0"
        for value in ("nan", "4000", "-4000"):  # 10**400 overflows, 10**-400 underflows
            argv = list(args)
            argv[argv.index("--values"):argv.index("2,3") + 1] = [f"--values={value}"]
            code, out, err = run_cli(capsys, argv)
            assert code == 1 and out == ""
            assert "ebn0_db" in err

    def test_nonfinite_gamma_rejected(self, capsys):
        for axis in ("users", "ebn0"):
            for gamma in ("nan", "inf", "-inf"):
                code, out, err = run_cli(capsys, ["ber-sweep", "--axis", axis, "--values", "2",
                                                  f"--gamma={gamma}"])
                assert code == 1 and out == ""
                assert err.count("\n") == 1 and "gamma must be finite" in err

    def test_tiny_negative_gamma_runs(self, capsys):
        # rho = (gamma + 0/4) % 1.0 rounds to 1.0 here; the slot code must still be made
        code, out, err = run_cli(capsys, ["ber-sweep", "--axis", "users", "--values", "2",
                                          "--gamma=-1e-17", "--kmax", "4", "--n", "8",
                                          "--trials", "10"])
        assert code == 0 and err == ""
        assert data_rows(out)[1][0][:5] == ["2", "weyl", "random", "-1e-17", "4"]

    def test_gold_length_without_built_in_pair_rejected(self, capsys):
        for n in ("7", "63", "127"):
            code, out, err = run_cli(capsys, ["ber-sweep", "--family", "gold", "--n", n,
                                              "--axis", "users", "--values", "2"])
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "n_chips = 31" in err

    def test_kmax_rejected_for_kinds_without_slots(self, capsys):
        for family in ("gold", "fzc"):
            code, out, err = run_cli(capsys, ["ber-sweep", "--family", family, "--kmax", "5",
                                              "--values", "7"])
            assert code == 1 and out == ""
            assert err == f"weylcdma: k_max applies to the weyl and optimal families, not {family}\n"

    def test_fixed_policy_named_once(self, tmp_path, capsys):
        args = list(self.ARGS)
        args[args.index("random")] = "fixed"
        code, out, _ = run_cli(capsys, args)
        assert code == 0
        assert "# policy=fixed\n" in out and "sigma_mode" not in out
        _, rows = data_rows(out)
        assert [r[2] for r in rows] == ["fixed", "fixed"]
        # a config file still naming the old per-trial/fixed switch is refused
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(values="2", sigma_mode="fixed")))
        code, out, err = run_cli(capsys, ["ber-sweep", "--config", str(path)])
        assert code == 1 and out == ""
        assert err == "weylcdma: ber-sweep: unknown config key 'sigma_mode'\n"

    # every header line and the config hash: a slip in the flag <-> field table shows here
    @pytest.mark.parametrize("argv, header", [
        (ARGS, "config=4d62f0e754a7 axis=users command=ber-sweep ebn0_db=20 family=weyl "
               "gamma=0.03125 k=2 kmax=16 n=16 policy=random seed=7 trials=400 values=2,3"),
        (["ber-sweep", "--axis", "ebn0", "--values", "0,10", "--family", "optimal", "--gamma",
          "0.1", "--policy", "fixed", "--n", "16", "--k", "3", "--trials", "300", "--seed", "5"],
         "config=37966e9115f3 axis=ebn0 command=ber-sweep ebn0_db=25 family=optimal "
         "gamma=0.1 k=3 kmax=auto n=16 policy=fixed seed=5 trials=300 values=0,10"),
    ], ids=["kmax", "kmax-auto"])
    def test_header_block_pinned(self, capsys, argv, header):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("#")]
        assert lines == ["# weylcdma 0.1.0"] + [f"# {kv}" for kv in header.split()]

    def test_enum_policy_written_as_its_value(self, tmp_path):
        texts = []
        for policy in (AssignmentPolicy.FIXED, "fixed"):
            config = SimConfig(n_users=2, n_chips=16, ebn0_db=20.0, trials=100, seed=3,
                               policy=policy)
            assert type(config.policy) is str
            _write_sweep(config, "users", [2, 3], str(tmp_path / "rows.csv"))
            texts.append((tmp_path / "rows.csv").read_text())
        assert texts[0] == texts[1] and "# policy=fixed\n" in texts[0]

    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, self.ARGS + ["--out", str(out_path)])
        assert code == 0
        header, rows = data_rows(out_path.read_text())
        assert len(rows) == 2


class TestPreset:
    def test_unknown_preset_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fig9", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'fig9'" in capsys.readouterr().err
        with pytest.raises(KeyError):
            run_preset("fig9", str(tmp_path))

    def test_unwritable_out_dir_exits_nonzero(self, capsys):
        code = main(["preset", "fig3", "--out-dir", "/proc/definitely/not/writable",
                     "--trials", "10"])
        assert code != 0

    def test_command_prints_the_paths_it_writes(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, ["preset", "fig4", "--out-dir", str(tmp_path),
                                          "--trials", "10"])
        assert code == 0 and err == ""
        assert out.splitlines() == [str(tmp_path / f"fig4_{curve}.csv") for curve in (
            "weyl_kmax30_gamma_1_over_2n", "weyl_kmax30_gamma_1_over_2k",
            "weyl_kmax14_gamma_1_over_2n", "weyl_kmax14_gamma_1_over_2k", "optimal")]
        assert all(Path(line).is_file() for line in out.splitlines())

    def test_fig3_writes_two_curves(self, tmp_path):
        written = run_preset("fig3", str(tmp_path), trials=30, seed=5)
        names = sorted(p.name for p in written)
        assert names == ["fig3_weyl_random_sigma.csv", "fig3_weyl_vdc_sigma.csv"]
        header, rows = data_rows(written[0].read_text())
        assert len(rows) == 31  # users 2..32
        text = written[0].read_text()
        assert "# preset=fig3" in text and "# trials=30" in text

    def test_fig1_caps_fzc_users_at_family_capacity(self, tmp_path):
        written = run_preset("fig1", str(tmp_path), trials=2, seed=5)
        by_name = {p.name: p for p in written}
        _, fzc_rows = data_rows(by_name["fig1_fzc_1_1_1.275.csv"].read_text())
        assert float(fzc_rows[-1][0]) == 30.0  # phi(31) = 30 < 31
        _, gold_rows = data_rows(by_name["fig1_gold.csv"].read_text())
        assert float(gold_rows[-1][0]) == 31.0
        _, optimal_rows = data_rows(by_name["fig1_optimal.csv"].read_text())
        assert float(optimal_rows[-1][0]) == 31.0  # capacity follows K

    def test_presets_match_pinned_digest(self, tmp_path, monkeypatch):
        # sha256 of the `sha256sum * | sha256sum` listing of fig1..fig4 at 300 trials,
        # seed 7, under 1 and 2 threads; a declared change to the CSV bytes updates this pin
        multi_block = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("WEYLCDMA_THREADS", threads)
            # 300 trials are one block, which one worker runs; 2,500 span three blocks
            paths = run_preset("fig3", str(tmp_path / f"fig3_{threads}"), trials=2_500, seed=7)
            multi_block[threads] = [path.read_bytes() for path in paths]
            out = tmp_path / threads
            for name in ("fig1", "fig2", "fig3", "fig4"):
                run_preset(name, str(out), trials=300, seed=7)
            listing = "".join(
                f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                for path in sorted(out.iterdir(), key=lambda path: path.name)
            )
            assert hashlib.sha256(listing.encode()).hexdigest() == (
                "71f60859a284889c1cb4e5e6f88bdf5db553e03190ec39550c1849537ef722b9"
            ), f"WEYLCDMA_THREADS={threads}"
        assert multi_block["1"] == multi_block["2"]

    def test_solve_reports_match_pinned_digest(self, capsys):
        # sha256 of the stdout of `solve` over K x gamma (K outer), 2,000 samples, seed 3;
        # pins the phases, objective, KKT residual and falsifier report byte for byte
        for k in (2, 3, 4, 5, 7, 8, 10, 16, 20, 31, 40):
            for gamma in ("0", "0.0161", "0.37"):
                argv = ["solve", "--k", str(k), "--gamma", gamma, "--samples", "2000", "--seed", "3"]
                assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "1768bfe22fb1a71e4fbbc702a0e35ffb72f51bbfd407e74424e8b7aa692576b9"
        )

    def test_preset_names_cover_figures(self, tmp_path):
        for name in ("fig1", "fig2", "fig3", "fig4"):
            from weylcdma.cli import _preset_curves

            axis, values, base, curves = _preset_curves(name)
            assert axis in ("users", "ebn0") and len(values) > 0 and len(curves) >= 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
