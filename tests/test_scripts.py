"""The experiment scripts run end to end with the CLI's family flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_moment_table():
    res = run_script("moment_table.py", "--family", "zipf", "--s", "2",
                     "--k", "1", "2", "--points", "3")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "t,k,star,exact_mean,exact_var,asym_mean,asym_var,trunc_err"
    assert len(lines) == 1 + 3 * 2


def test_run_all_studies(tmp_path):
    # remark1 fails on this small grid, so the exit code is 1; the outputs
    # are what is checked
    res = run_script("run_all_studies.py", "--family", "zipf", "--s", "2",
                     "--n-min", "1000", "--n-max", "20000", "--points", "5",
                     "--seeds", "5", "--out", str(tmp_path))
    assert res.returncode in (0, 1), res.stderr
    results = [line for line in res.stdout.splitlines()
               if line.split()[1:2] in (["PASS"], ["FAIL"])]
    assert len(results) == 6
    docs = sorted(tmp_path.glob("*.json"))
    assert len(docs) == 6
    assert all(json.loads(p.read_text())["study"] for p in docs)


def test_traj_scale():
    res = run_script("traj_scale.py", "--family", "theta_one_log", "--n-max", "1e5")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[:2] == ["family=theta_one_log n_max=100000 points=5",
                         "run,seconds,peak_rss_mb"]
    rows = [line.split(",") for line in lines[2:]]
    assert [row[0] for row in rows] == ["0"]
    assert all(float(row[1]) > 0 and float(row[2]) > 0 for row in rows)


def test_bad_flags_exit_2():
    for name in ("moment_table.py", "run_all_studies.py"):
        res = run_script(name, "--s", "2")
        assert res.returncode == 2 and "--family" in res.stderr
        res = run_script(name, "--family", "zipf_log", "--s", "2")
        assert res.returncode == 2 and "log power a" in res.stderr
    res = run_script("run_all_studies.py", "--family", "zipf", "--s", "2", "--seeds", "0")
    assert res.returncode == 2 and "seeds must be >= 1" in res.stderr
    for bad in (["--family", "zipf_log", "--s", "2", "--n-max", "1e5"],
                ["--family", "zipf", "--s", "2", "--n-max", "1e3"]):
        res = run_script("traj_scale.py", *bad)
        assert res.returncode == 2 and "error:" in res.stderr, bad
