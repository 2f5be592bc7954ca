import argparse
import json
import os
from pathlib import Path

import pytest

from urnsim.cli import TRAJECTORY_HEADER, build_parser, main
from urnsim.distributions import _FAMILIES, _PARAMETERS
from urnsim.moments import _LAWS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestMoments:
    def test_zero_scale_geometric(self, capsys):
        rc, out, _ = run_cli(capsys, "moments", "--family", "geometric",
                             "--q", "0.5", "--t", "0", "--k", "1")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,k,star,exact_mean")
        assert lines[1].split(",")[3] == "0.0"

    def test_star_row(self, capsys):
        rc, out, _ = run_cli(capsys, "moments", "--family", "zipf", "--s", "2",
                             "--t", "1e6", "--k", "2", "--star")
        assert rc == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[3]) > 0 and fields[2] == "1"

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_t_rejected(self, capsys, t):
        rc, out, err = run_cli(capsys, "moments", "--family", "zipf", "--s", "2",
                               "--t", t, "--k", "1")
        assert rc == 2 and not out
        assert "t must be >= 0 and finite" in err

    def test_bad_family_params(self, capsys):
        rc, _, err = run_cli(capsys, "moments", "--family", "zipf", "--s", "0.5",
                             "--t", "10", "--k", "1")
        assert rc == 2
        assert "s > 1" in err

    @pytest.mark.parametrize("flags, message", [
        (["--family", "zipf", "--s", "inf"], "s must be finite"),
        (["--family", "zipf_log", "--s", "2", "--a", "nan"], "a must be finite"),
    ], ids=["zipf_s_inf", "zipf_log_a_nan"])
    def test_non_finite_family_params(self, capsys, flags, message):
        rc, out, err = run_cli(capsys, "moments", *flags, "--t", "100", "--k", "1")
        assert rc == 2 and not out
        assert message in err

    @pytest.mark.parametrize("law", _LAWS)
    def test_k_past_the_tail_orders(self, capsys, law):
        # the series tail has orders 1..60; k = 61 is refused, not an IndexError
        rc, out, err = run_cli(capsys, "moments", "--family", "zipf", "--s", "2", "--t", "1e4",
                               "--k", "61", "--star", "--law", law)
        assert rc == 2 and not out
        assert err == "error: k must be >= 1 and <= 60, got 61\n"


class TestSimulate:
    def test_deterministic_csv(self, capsys, tmp_path):
        args = ["simulate", "--family", "zipf", "--s", "2", "--n-max", "2000",
                "--points", "4", "--seeds", "2", "--k-max", "3", "--seed", "42"]
        rc1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
        rc2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))
        assert rc1 == 0 and rc2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == ",".join(TRAJECTORY_HEADER)

    def test_scaled_diff_column(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        rc, _, _ = run_cli(capsys, "simulate", "--family", "geometric", "--q", "0.5",
                           "--n-max", "1000", "--points", "3", "--seeds", "1",
                           "--out", str(out))
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            f = row.split(",")
            diff = abs(int(f[4]) - int(f[5]))
            assert abs(float(f[9]) - float(f[8]) * diff) < 1e-12

    @pytest.mark.parametrize("flags, message", [
        (["--n-max", "inf"], "--n-max must be finite"),
        (["--n-max", "1000", "--seeds", "0"], "--seeds must be >= 1"),
        (["--n-max", "1000", "--seeds", "-1"], "--seeds must be >= 1"),
        (["--n-max", "1e30"], "n_max < 2^62"),
        (["--n-max", "1e19"], "n_max < 2^62"),
        (["--n-min", "200", "--n-max", "100"], "n_min < n_max"),
        (["--n-min", "0", "--n-max", "1000"], "1 <= n_min"),
        (["--n-max", "1e6", "--points", "1"], "points >= 2"),
    ], ids=["n_max_inf", "seeds_0", "seeds_negative", "n_max_1e30", "n_max_1e19",
            "n_min_above_n_max", "n_min_0", "points_1"])
    def test_bad_input_rejected(self, capsys, tmp_path, flags, message):
        rc, out, err = run_cli(capsys, "simulate", "--family", "zipf", "--s", "2",
                               *flags, "--out", str(tmp_path / "t.csv"))
        assert rc == 2 and not out
        assert message in err
        assert not list(tmp_path.iterdir())


class TestVerify:
    def test_lemma2_default_config(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "verify", "lemma2", "--config", "default",
                             "--out", str(tmp_path))
        assert rc == 0
        assert "PASS" in out
        payload = json.loads((tmp_path / "lemma2_zipf.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["passed"] is True
        assert (tmp_path / "lemma2_zipf.csv").exists()

    def test_config_file_with_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("family = geometric\nq = 0.5\nn_min = 100\n"
                       "n_max = 10000\npoints = 5\nks = 1,2\n")
        rc, out, _ = run_cli(capsys, "verify", "lemma5", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "lemma5_geometric.json").exists()

    def test_config_with_section_header(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[urnsim]\nfamily = zipf\ns = 2.0  # comment\n"
                       "n_min = 1000\nn_max = 20000\npoints = 4\nks = 1,\n")
        rc, _, _ = run_cli(capsys, "verify", "lemma2", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert rc == 0

    def test_failing_study_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        # along a decreasing t grid the medians rise: a clean FAIL
        cfg.write_text("family = zipf\ns = 2.0\nseeds = 5\n"
                       "rate_t_values = 1e5, 1e4\n")
        rc, out, _ = run_cli(capsys, "verify", "prop1", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert rc == 1
        assert "FAIL" in out

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("URNSIM_OUT", str(tmp_path))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("family = geometric\nq = 0.5\nn_min = 100\n"
                       "n_max = 2000\npoints = 3\nks = 1,\n")
        rc, _, _ = run_cli(capsys, "verify", "lemma5", "--config", str(cfg))
        assert rc == 0
        assert (tmp_path / "lemma5_geometric.json").exists()

    def test_theorem1_prints_vacuous_band_edge(self, capsys, tmp_path):
        # with 30 seeds the k = 2 band at n = 1e4 has low edge 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("family = theta_one_log\nn_min = 10000\nn_max = 100000\n"
                       "points = 2\nks = 2,\nseeds = 30\n")
        rc, out, _ = run_cli(capsys, "verify", "theorem1", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert rc in (0, 1)
        assert "vacuous_low_first_k2: band low edge 0 at n_min" in out

    def test_bad_config_diagnostic(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        for key, value in (("bogus_key", "3"), ("k_max", "3"),
                           ("rate_threshold", "1e-12"), ("n_max", "inf"),
                           ("seeds", "2.7"), ("rate_t_values", "-1e4"),
                           ("rate_t_values", "1e4, inf"), ("rate_t_values", "0"),
                           ("n_max", "1e30"), ("n_max", "1e19"),
                           ("normalization_tolerance", "1e-9")):
            cfg.write_text(f"family = zipf\ns = 2.0\n{key} = {value}\n")
            rc, _, err = run_cli(capsys, "verify", "lemma2", "--config", str(cfg))
            assert rc == 2
            assert key in err

    def test_n_floor_above_n_max(self, capsys, tmp_path):
        # no checkpoint n >= n_floor: refused before any study runs
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("family = zipf\ns = 2.0\nn_max = 5000\nn_floor = 100000\n")
        rc, _, err = run_cli(capsys, "verify", "remark1", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert rc == 2
        assert "n_floor must not exceed n_max" in err
        assert "Traceback" not in err

    def test_k_past_the_tail_orders(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("family = zipf\ns = 2.0\nn_max = 5000\nks = 61\n")
        rc, _, err = run_cli(capsys, "verify", "lemma5", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert rc == 2
        assert err == "error: k must be >= 1 and <= 60, got 61\n"

    def test_missing_config_file(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "lemma2", "--config",
                             "/nonexistent/cfg.ini")
        assert rc == 2
        assert err.strip()


class TestEstimateTheta:
    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        rc, _, _ = run_cli(capsys, "simulate", "--family", "zipf", "--s", "2",
                           "--n-max", "200000", "--points", "5", "--seeds", "3",
                           "--seed", "11", "--out", str(out))
        assert rc == 0
        rc, text, _ = run_cli(capsys, "estimate-theta", "--traj", str(out))
        assert rc == 0
        lines = text.strip().splitlines()
        assert lines[0] == "seed,theta_estimate"
        med = float(lines[-1].split(",")[1])
        assert 0.3 < med < 0.75

    def test_uses_fixed_columns_only(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        rc, _, _ = run_cli(capsys, "simulate", "--family", "zipf", "--s", "2",
                           "--n-max", "20000", "--points", "5", "--seeds", "2",
                           "--k-max", "2", "--seed", "4", "--out", str(out))
        assert rc == 0
        rc, text, _ = run_cli(capsys, "estimate-theta", "--traj", str(out))
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        col = rows[0].index("rstar_poisson")
        for row in rows[1:]:
            row[col] = "0"
        out.write_text("".join(",".join(row) + "\n" for row in rows))
        rc, tweaked, _ = run_cli(capsys, "estimate-theta", "--traj", str(out))
        assert rc == 0 and tweaked == text

    def test_rejects_non_trajectory(self, capsys, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b\n1,2\n")
        rc, _, err = run_cli(capsys, "estimate-theta", "--traj", str(bad))
        assert rc == 2
        assert "trajectory" in err


class TestParsing:
    def test_unknown_flag_rejected(self, capsys):
        rc, _, _ = run_cli(capsys, "moments", "--family", "zipf", "--s", "2",
                           "--t", "10", "--k", "1", "--bogus")
        assert rc == 2

    def test_unknown_subcommand_rejected(self, capsys):
        rc, _, _ = run_cli(capsys, "frobnicate")
        assert rc == 2

    def test_subcommand_required(self, capsys):
        rc, _, _ = run_cli(capsys)
        assert rc == 2

    def test_choices_from_the_tables(self):
        # --family, --s/--a/--q and --law come from the family table, the
        # parameter table and the law tuple that the spec and series check
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("moments", "simulate"):
            actions = {a.dest: a for a in sub.choices[command]._actions}
            assert list(actions["family"].choices) == list(_FAMILIES)
            for name, meaning in _PARAMETERS.items():
                assert actions[name].help.startswith(meaning)
        law = {a.dest: a for a in sub.choices["moments"]._actions}["law"]
        assert tuple(law.choices) == _LAWS
