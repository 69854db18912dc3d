"""Command-line runner: exit codes, determinism, report shapes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from collinext import cli


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def child_env():
    """The environment with this checkout's src first on PYTHONPATH, so a
    spawned `python -m collinext` imports the code under test."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_checkgeom_f3_plane(capsys):
    code, out = run_main(["--cmd", "checkgeom", "--q", "3", "--d", "3"],
                         capsys)
    assert code == 0
    rep = json.loads(out)
    t = rep["trials"][0]
    assert t["axioms_ok"] and t["desargues_ok"]
    assert t["axiom_configs"]["axiom_ii_configs"] == 21060
    assert t["desargues_checked"] == 1316952


def test_extend_trials_pass(capsys):
    code, out = run_main(["--cmd", "extend", "--q", "5", "--d", "3",
                          "--t", "1", "--trials", "5", "--seed", "7"],
                         capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["aggregate"] == {"n": 5, "passed": 5, "all_pass": True}
    assert all(t["ok"] for t in rep["trials"])
    assert [t["kind"] for t in rep["trials"]] == [
        "all", "flat", "all", "flat", "flat"]


def test_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--cmd", "extend", "--q", "5", "--d", "3", "--t", "1",
            "--trials", "4", "--seed", "11"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"elapsed" not in a.read_bytes()   # timing never enters the report


def test_oracle_counts_one(capsys):
    code, out = run_main(["--cmd", "oracle", "--q", "5", "--d", "3",
                          "--t", "1", "--trials", "2", "--seed", "3"],
                         capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(t["count"] == 1 and t["ok"] for t in rep["trials"])


def test_primesets_defaults(capsys):
    code, out = run_main(["--cmd", "primesets", "--g", "1", "--p", "2",
                          "--eps", "0.3", "--bound", "100000"], capsys)
    assert code == 0
    t = json.loads(out)["trials"][0]
    assert t["r"] == 13 and t["ok"]
    assert t["density_bound"] == "1/4"
    assert t["density_float"] <= 0.25 + 0.05


def test_ffdemo_both_instances(capsys):
    for q, frob in ((13, 0), (9, 1)):
        code, out = run_main(["--cmd", "ffdemo", "--q", str(q)], capsys)
        assert code == 0
        t = json.loads(out)["trials"][0]
        assert t["ok"] and t["recovered_frob"] == frob


def test_csv_format(capsys):
    code, out = run_main(["--cmd", "extend", "--q", "5", "--d", "3",
                          "--t", "1", "--trials", "3", "--seed", "2",
                          "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "frob,kind,n_u1,ok,trial"
    assert len(lines) == 4


def test_out_file_quiet_stdout(tmp_path, capsys):
    dest = tmp_path / "r.json"
    code, out = run_main(["--cmd", "checkgeom", "--q", "2", "--d", "3",
                          "--out", str(dest)], capsys)
    assert code == 0 and out == ""
    rep = json.loads(dest.read_text())
    assert rep["trials"][0]["axiom_configs"]["axiom_ii_configs"] == 1344
    assert rep["trials"][0]["desargues_checked"] == 13440


# ---------------------------------------------------------------------------
# rejections and failure exit
# ---------------------------------------------------------------------------

def test_precondition_rejections(capsys):
    code, out = run_main(["--cmd", "extend", "--q", "5", "--d", "3",
                          "--t", "2", "--trials", "3"], capsys)
    assert code == 2 and out == ""
    code, _ = run_main(["--cmd", "extend", "--q", "5", "--d", "2"], capsys)
    assert code == 2
    code, _ = run_main(["--cmd", "ffdemo", "--q", "7"], capsys)
    assert code == 2
    code, _ = run_main(["--cmd", "extend", "--q", "6", "--d", "3"], capsys)
    assert code == 2   # 6 is not a prime power
    code, _ = run_main(["--cmd", "oracle", "--q", "9", "--d", "4",
                        "--t", "1", "--trials", "1"], capsys)
    assert code == 2   # brute force over PGammaL(4, 9) refused


def test_failing_trial_exits_one(capsys, monkeypatch):
    def stub(cfg):
        return cli._wrap(cfg, [{"trial": 0, "ok": True},
                               {"trial": 1, "ok": False}])
    monkeypatch.setitem(cli._COMMANDS, "extend", stub)
    code, out = run_main(["--cmd", "extend"], capsys)
    assert code == 1
    assert json.loads(out)["aggregate"] == {
        "n": 2, "passed": 1, "all_pass": False}


def test_unknown_cmd_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--cmd", "frobnicate"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_trial_streams_independent():
    a = cli.trial_rng(5, 3).integers(0, 1 << 30, size=4)
    b = cli.trial_rng(5, 3).integers(0, 1 << 30, size=4)
    c = cli.trial_rng(5, 4).integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "collinext", "--cmd", "checkgeom",
         "--q", "2", "--d", "3"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert r.returncode == 0
    assert json.loads(r.stdout)["aggregate"]["all_pass"]
    assert "elapsed" in r.stderr


def test_empty_battery_rejected(capsys):
    for cmd in ("extend", "oracle"):
        for n in ("0", "-1"):
            code, out = run_main(["--cmd", cmd, "--q", "5", "--d", "3",
                                  "--trials", n], capsys)
            assert code == 2 and out == ""


def test_checkgeom_projective_line_rejected():
    # the sampled Desargues sweep on P^1 used to search forever
    r = subprocess.run(
        [sys.executable, "-m", "collinext", "--cmd", "checkgeom",
         "--q", "5", "--d", "2"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert r.returncode == 2
    assert "rejected" in r.stderr and r.stdout == ""
