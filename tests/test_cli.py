"""Command-line runner: exit codes, determinism, report shapes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from collinext import cli, primesets, projgeom


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


@pytest.mark.parametrize("q", [17, 19, 23, 29, 31])
def test_extend_runs_at_primes_above_13(q, capsys):
    # field_of_order stopped at p = 13 and refused these with exit 2
    code, out = run_main(["--cmd", "extend", "--q", str(q), "--d", "3",
                          "--t", "1", "--trials", "1"], capsys)
    assert code == 0
    assert json.loads(out)["aggregate"] == {"n": 1, "passed": 1,
                                            "all_pass": True}


def test_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--cmd", "extend", "--q", "5", "--d", "3", "--t", "1",
            "--trials", "4", "--seed", "11"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"elapsed" not in a.read_bytes()   # timing never enters the report


# one command on each space-building path: the trial loop, the sweeps and
# the function-field unit subset
SHARED_SPACE_RUNS = [
    ["--cmd", "extend", "--q", "5", "--d", "3", "--t", "1", "--trials", "3",
     "--seed", "4"],
    ["--cmd", "oracle", "--q", "7", "--d", "3", "--t", "1", "--trials", "2",
     "--seed", "4"],
    ["--cmd", "checkgeom", "--q", "2", "--d", "4", "--seed", "4"],
    ["--cmd", "ffdemo", "--q", "9", "--seed", "4"],
]


def test_reports_same_on_shared_evicted_and_fresh_spaces(capsys):
    fresh = [subprocess.run([sys.executable, "-m", "collinext"] + args,
                            capture_output=True, text=True, timeout=120,
                            env=child_env()).stdout
             for args in SHARED_SPACE_RUNS]
    assert all(json.loads(out)["aggregate"]["all_pass"] for out in fresh)
    for _ in range(2):   # the second pass reads the shared spaces
        hits = projgeom.space_of.cache_info().hits
        assert [run_main(a, capsys)[1] for a in SHARED_SPACE_RUNS] == fresh
    assert projgeom.space_of.cache_info().hits >= hits + 4
    for args, want in zip(SHARED_SPACE_RUNS, fresh):
        # four other spaces evict this command's space before it runs
        for q in (2, 3, 4, 8):
            assert run_main(["--cmd", "extend", "--q", str(q), "--d", "3",
                             "--t", "0", "--trials", "1"], capsys)[0] == 0
        misses = projgeom.space_of.cache_info().misses
        assert run_main(args, capsys)[1] == want, args
        assert projgeom.space_of.cache_info().misses == misses + 1, args


def test_oracle_counts_one(capsys):
    code, out = run_main(["--cmd", "oracle", "--q", "5", "--d", "3",
                          "--t", "1", "--trials", "2", "--seed", "3"],
                         capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(t["count"] == 1 and t["ok"] for t in rep["trials"])


@pytest.mark.parametrize("q,d", [(8, 3), (9, 3), (5, 4)])
def test_oracle_runs_where_the_group_walk_was_refused(q, d, capsys):
    # |PGammaL_d(q)| is above the 1e7 budget at each size; the frame
    # search builds n candidates per trial instead
    code, out = run_main(["--cmd", "oracle", "--q", str(q), "--d", str(d),
                          "--t", "1", "--trials", "3", "--seed", "5"],
                         capsys)
    assert code == 0
    trials = json.loads(out)["trials"]
    assert len(trials) == 3
    assert all(t["count"] == 1 and t["ok"] for t in trials)


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


@pytest.mark.parametrize("where", ["missing dir", "a directory"])
def test_out_unwritable_is_rejected(where, tmp_path, capsys):
    # writing the report to a path that cannot be opened ended in a
    # FileNotFoundError traceback and exit 1
    dest = tmp_path / "no" / "x.json" if where == "missing dir" else tmp_path
    code = cli.main(["--cmd", "extend", "--q", "5", "--d", "3",
                     "--trials", "1", "--out", str(dest)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("rejected: --out: ") and str(dest) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# rejections and failure exit
# ---------------------------------------------------------------------------

def test_precondition_rejections(capsys, monkeypatch):
    code, out = run_main(["--cmd", "extend", "--q", "5", "--d", "3",
                          "--t", "2", "--trials", "3"], capsys)
    assert code == 2 and out == ""
    code, _ = run_main(["--cmd", "extend", "--q", "5", "--d", "2"], capsys)
    assert code == 2
    code, _ = run_main(["--cmd", "ffdemo", "--q", "7"], capsys)
    assert code == 2
    code, _ = run_main(["--cmd", "extend", "--q", "6", "--d", "3"], capsys)
    assert code == 2   # 6 is not a prime power
    code, out = run_main(["--cmd", "oracle", "--q", "9", "--d", "4",
                          "--t", "1", "--trials", "1"], capsys)
    assert code == 0   # U1 holds a frame: two candidates, not PGammaL(4, 9)
    assert json.loads(out)["trials"][0]["count"] == 1
    # one seed rule for every command, before any work
    for args in (["--cmd", "extend", "--seed", "-1"],
                 ["--cmd", "oracle", "--trials", "1", "--seed", "-7"],
                 ["--cmd", "ffdemo", "--q", "13", "--seed", "-5"],
                 ["--cmd", "checkgeom", "--q", "3", "--d", "4", "--seed", "-1"],
                 ["--cmd", "primesets", "--seed", "-2"],
                 ["--cmd", "extend", "--seed", str(1 << 64)],
                 ["--cmd", "oracle", "--trials", "1", "--seed", str(1 << 64)],
                 ["--cmd", "ffdemo", "--q", "13", "--seed", str(1 << 64)],
                 ["--cmd", "checkgeom", "--q", "3", "--d", "4",
                  "--seed", str(1 << 65)],
                 ["--cmd", "primesets", "--seed", str(1 << 64)]):
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", args
        assert "--seed must be at least 0 and below 2^64" in err, args
    code, out = run_main(["--cmd", "extend", "--trials", "1",
                          "--seed", str((1 << 64) - 1)], capsys)
    assert code == 0 and json.loads(out)["config"]["seed"] == (1 << 64) - 1
    # the sieve and battery caps, before any sieve or field is built: the
    # bounds ended in a MemoryError and a ValueError traceback, and 100000
    # trials ran without end
    def unbuilt(*args):
        raise AssertionError("work began before the refusal")
    monkeypatch.setattr(primesets, "prime_sieve", unbuilt)
    monkeypatch.setattr(cli, "field_of_order", unbuilt)
    for args, msg in (
            (["--cmd", "primesets", "--bound", str(10 ** 10)],
             "bound 10000000000 is above the sieve cap 100000000"),
            (["--cmd", "primesets", "--bound", str(10 ** 20)],
             "above the sieve cap"),
            (["--cmd", "primesets", "--bound", "99"], "bound must be >= 100"),
            (["--cmd", "extend", "--q", "5", "--d", "3", "--trials",
              "100000"], "--trials must be from 1 to 1000"),
            (["--cmd", "oracle", "--trials", "1001"],
             "--trials must be from 1 to 1000")):
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", args
        assert msg in err, args


def test_threshold_zero_runs(capsys):
    # at t = 0 the only ample domain is the whole space
    for args in (["--cmd", "extend", "--t", "0", "--trials", "2"],
                 ["--cmd", "oracle", "--q", "2", "--t", "0", "--trials", "3"]):
        code, out = run_main(args, capsys)
        assert code == 0, args
        trials = json.loads(out)["trials"]
        assert [t["kind"] for t in trials] == ["all"] * len(trials), args
        assert all(t["ok"] for t in trials), args


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


def test_eps_zero_denominator_is_a_usage_error(capsys):
    # Fraction("1/0") raises ZeroDivisionError, which argparse does not
    # catch: the command ended in a traceback with exit 1
    for eps, msg in (("1/0", "'1/0' has a zero denominator"),
                     ("abc", "invalid _fraction value: 'abc'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--cmd", "primesets", "--eps", eps])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", eps
        assert "argument --eps: " + msg in err, eps


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_trial_streams_independent():
    a = cli.trial_rng(5, 3).integers(0, 1 << 30, size=4)
    b = cli.trial_rng(5, 3).integers(0, 1 << 30, size=4)
    c = cli.trial_rng(5, 4).integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    # the whole seed range keys its own stream, 2^63 and above too
    top = [cli.trial_rng(s, 0).integers(0, 1 << 30, size=4)
           for s in ((1 << 63) + 1, (1 << 63) + 5, (1 << 64) - 1)]
    assert len({t.tobytes() for t in top}) == 3


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


def test_checkgeom_refuses_untabled_inputs(capsys):
    # P^6(F_2) has 2667 lines, too many for a meet table; axiom II used to
    # end in a bare ValueError traceback there.  GF(2048) is over Q_CAP.
    t0 = time.perf_counter()
    code, out = run_main(["--cmd", "checkgeom", "--q", "2", "--d", "7"],
                         capsys)
    assert code == 2 and out == ""
    assert time.perf_counter() - t0 < 1.0
    code, out = run_main(["--cmd", "checkgeom", "--q", "2048"], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("q,d", [(2, 12), (3, 8), (2, 7)])
def test_checkgeom_refuses_before_building_the_space(q, d, capsys,
                                                     monkeypatch):
    # the join/meet caps are read off (q, d): --q 2 --d 12 used to end in
    # a MemoryError traceback, and --q 3 --d 8 refused at a 3 GB peak
    def no_space(*args):
        raise AssertionError("the space was built")
    monkeypatch.setattr(projgeom, "ProjSpace", no_space)
    monkeypatch.setattr(cli, "space_of", no_space)
    code, out = run_main(["--cmd", "checkgeom", "--q", str(q),
                          "--d", str(d)], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("q,d", [(5, 2), (1024, 2), (6, 2), (3, 1), (1, 2)])
def test_checkgeom_refuses_below_a_plane_before_the_field(q, d, capsys,
                                                         monkeypatch):
    # --q 1024 --d 2 used to build GF(1024), the space and a 1.07 GB
    # triple mask before desargues_sweep refused it
    def no_field(q):
        raise AssertionError("the field was built")
    monkeypatch.setattr(cli, "field_of_order", no_field)
    code = cli.main(["--cmd", "checkgeom", "--q", str(q), "--d", str(d)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "Desargues needs a plane: dimension must be at least 3" in err


def test_checkgeom_triple_budget_message(capsys):
    code = cli.main(["--cmd", "checkgeom", "--q", "13", "--d", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("rejected: budget: 5628714 ordered non-collinear "
                   "triples, cap is 4000000\n")


def test_checkgeom_certifies_once(capsys, monkeypatch):
    # one command runs the table check and the chain once, for both sweeps
    calls = Counter()
    for name in ("_check_tables", "_stabilizer_chain"):
        fn = getattr(projgeom, name)
        monkeypatch.setattr(projgeom, name, lambda *a, fn=fn, name=name:
                            calls.update([name]) or fn(*a))
    code, out = run_main(["--cmd", "checkgeom", "--q", "3", "--d", "3"],
                         capsys)
    assert code == 0
    assert calls == {"_check_tables": 1, "_stabilizer_chain": 1}


def test_parser_is_built_once(capsys):
    cli.main(["--cmd", "checkgeom", "--q", "2", "--d", "3", "--format",
              "csv"])
    cli.main(["--cmd", "checkgeom", "--q", "2", "--d", "3"])
    out = capsys.readouterr().out
    # the second call does not inherit the first call's --format
    assert out.splitlines()[2] == "{"
    assert cli._parser() is cli._parser()
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize("args", [
    ["--cmd", "extend", "--q", "1024", "--d", "3"],
    ["--cmd", "checkgeom", "--q", "1024", "--d", "3"],
    ["--cmd", "oracle", "--q", "729", "--d", "3"],
], ids=["extend", "checkgeom", "oracle"])
def test_oversized_spaces_refused_before_the_field(args, capsys,
                                                   monkeypatch):
    # the point and sweep caps are read off (q, d); these used to refuse
    # only after building GF(q), 2.2 s of tables at q = 1024
    def no_field(q):
        raise AssertionError("the field was built")
    monkeypatch.setattr(cli, "field_of_order", no_field)
    t0 = time.perf_counter()
    code, out = run_main(args, capsys)
    assert code == 2 and out == ""
    assert time.perf_counter() - t0 < 0.5


def test_q_below_two_refused_as_not_a_prime_power(capsys):
    # the size check divides by q - 1, so these reach field_of_order
    for cmd in ("extend", "oracle", "checkgeom"):
        for q in ("0", "1", "-3"):
            code = cli.main(["--cmd", cmd, "--q", q, "--d", "3",
                             "--t", "-2"])
            out, err = capsys.readouterr()
            assert code == 2 and out == "", (cmd, q)
            assert "q = %s is not a supported prime power" % q in err


def test_config_trials_echo_the_battery_that_ran(capsys):
    # single-record commands ignore --trials; the report must not claim it
    for args in (["--cmd", "checkgeom", "--q", "2", "--d", "3",
                  "--trials", "3"],
                 ["--cmd", "ffdemo", "--q", "9", "--trials", "0"],
                 ["--cmd", "primesets", "--bound", "1000"],
                 ["--cmd", "extend", "--q", "5", "--d", "3", "--trials", "2"]):
        code, out = run_main(args, capsys)
        rep = json.loads(out)
        assert code == 0, args
        assert rep["config"]["trials"] == rep["aggregate"]["n"] \
            == len(rep["trials"]), args


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

# SHA-256 of the JSON report of each run, fixed when the scalar twins of
# the array paths were deleted; a refactor must leave every byte in place.
GOLDEN = [
    (["--cmd", "extend", "--q", "9", "--d", "3", "--t", "2",
      "--trials", "3", "--seed", "1"],
     "9a152797459097f12845410595ac992a28e8122558a5a54df79c3f5f5f679180"),
    (["--cmd", "extend", "--q", "8", "--d", "4", "--t", "1",
      "--trials", "1", "--seed", "7"],
     "1a1c6c708060ea67b653ac2d33b3399f2032e1aa2039bc6f0a44dbad79d92992"),
    (["--cmd", "oracle", "--q", "5", "--d", "3", "--t", "1",
      "--trials", "2", "--seed", "7"],
     "0478c1f025622baa3fb88606924a323d32d949b1f2da926b4cee7a9187b6f3d5"),
    (["--cmd", "checkgeom", "--q", "3", "--d", "3", "--seed", "7"],
     "45880ad0573bf5c03cba7dce225f78c7728665f6d2a94edca88ae9d56732f49e"),
    (["--cmd", "checkgeom", "--q", "3", "--d", "4", "--seed", "7"],
     "b4a6cfa465ae650b4abdcf3346d2d14e31887ff9947229dfbf84ad7a0d4e3a60"),
    (["--cmd", "ffdemo", "--q", "13", "--seed", "7"],
     "9a274c802df155eea40ba276f06c438cfbaedf31ce1c3f597a56e5cbd9c374c1"),
    (["--cmd", "ffdemo", "--q", "9", "--seed", "7"],
     "32ddd67cdec24d29465a3e64fee719222838158866e6bacf3f45af2273717cec"),
    (["--cmd", "primesets"],
     "3a13388b3eca2a71e8000a8b4b1a629abd20d0eb4019912b9491f165ddb2105a"),
]


def test_golden_reports(capsys):
    for args, digest in GOLDEN:
        code, out = run_main(args, capsys)
        assert code == 0, args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
