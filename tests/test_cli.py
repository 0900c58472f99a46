import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entot import cli
from entot import inference as inf
from entot import measures as ms
from entot import sinkhorn as sk
from entot.sinkhorn import SolverConfig

from _util import force_pool


@pytest.fixture()
def dirac_files(tmp_path):
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    ms.write_measure(ms.dirac([0.0]), p)
    ms.write_measure(ms.dirac([3.0]), q)
    return str(p), str(q)


@pytest.fixture()
def random_files(tmp_path):
    stream = ms.SeedSpec(515, 0).stream()
    p = tmp_path / "pr.csv"
    q = tmp_path / "qr.csv"
    ms.write_measure(ms.uniform_on(stream.uniforms(10).reshape(5, 2)), p)
    ms.write_measure(ms.uniform_on(stream.uniforms(12).reshape(6, 2)), q)
    return str(p), str(q)


def test_solve_prints_cost(dirac_files, capsys):
    p, q = dirac_files
    code = cli.run(["solve", "--p", p, "--q", q, "--eps", "1", "--tol", "1e-9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cost" in out and "4.5" in out
    assert "converged" in out and "yes" in out


def test_cost_round_trips_bit_for_bit(random_files, capsys):
    p, q = random_files
    code = cli.run(["cost", "--p", p, "--q", q, "--eps", "1.5"])
    printed = capsys.readouterr().out.strip()
    assert code == 0
    P, Q = ms.load_measure(p), ms.load_measure(q)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.5, tol=1e-9))
    assert float(printed) == sk.cost(P, Q, pair, tol=1e-9)


def test_solve_out_file_round_trips_potentials(random_files, tmp_path, capsys):
    p, q = random_files
    out = tmp_path / "solution.csv"
    code = cli.run(["solve", "--p", p, "--q", q, "--eps", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    P, Q = ms.load_measure(p), ms.load_measure(q)
    pair, report = sk.solve(P, Q, SolverConfig(eps=2.0, tol=1e-9))
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "field,index,value"
    f_vals = [float(r.split(",")[2]) for r in rows if r.startswith("f,")]
    g_vals = [float(r.split(",")[2]) for r in rows if r.startswith("g,")]
    assert np.array_equal(np.array(f_vals), pair.f)
    assert np.array_equal(np.array(g_vals), pair.g)
    cost_row = next(r for r in rows if r.startswith("cost,"))
    assert float(cost_row.split(",")[2]) == sk.cost(P, Q, pair, tol=1e-9)


def test_divergence_dirac(dirac_files, capsys):
    p, q = dirac_files
    code = cli.run(["divergence", "--p", p, "--q", q, "--eps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "divergence" in out and "4.5" in out


def test_ci_prints_interval(random_files, capsys):
    p, q = random_files
    code = cli.run(["ci", "--p", p, "--q", q, "--eps", "2", "--alpha", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    for field in ("center", "half_width", "variance", "level"):
        assert field in out


@pytest.mark.parametrize("command", ["ci", "divergence"])
def test_out_records_round_trip(command, random_files, tmp_path, capsys):
    p, q = random_files
    out = tmp_path / f"{command}.csv"
    assert cli.run([command, "--p", p, "--q", q, "--eps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    P, Q = ms.load_measure(p), ms.load_measure(q)
    cfg = SolverConfig(eps=2.0, tol=1e-9)
    if command == "ci":
        ci = inf.ci_two_sample(P, Q, cfg, 0.05)
        expected = {
            "center": ci.center, "half_width": ci.half_width, "low": ci.low,
            "high": ci.high, "level": ci.level, "variance": ci.variance.value,
            "n": ci.variance.n, "m": ci.variance.m,
        }
    else:
        div = inf.sinkhorn_divergence(P, Q, cfg)
        expected = {"divergence": div.value, "s_pq": div.parts[0],
                    "s_pp": div.parts[1], "s_qq": div.parts[2], "eps": div.eps}
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "field,index,value"
    records = [row.split(",") for row in rows[1:]]
    assert [name for name, _, _ in records] == list(expected)
    for name, index, value in records:
        assert index == ""
        assert type(expected[name])(value) == expected[name]


def test_usage_errors_exit_two(capsys):
    assert cli.run([]) == 2
    assert cli.run(["solve", "--p", "x.csv"]) == 2  # missing required flags
    assert cli.run(["unknown-command"]) == 2
    capsys.readouterr()


def test_missing_file_exits_four(tmp_path, capsys):
    code = cli.run(["solve", "--p", str(tmp_path / "nope.csv"),
                    "--q", str(tmp_path / "nope.csv"), "--eps", "1"])
    assert code == 4
    assert "entot:" in capsys.readouterr().err


def test_malformed_file_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,measure\n1,2,3\n", encoding="utf-8")
    code = cli.run(["solve", "--p", str(bad), "--q", str(bad), "--eps", "1"])
    assert code == 4
    capsys.readouterr()


def test_bad_eps_exits_two(dirac_files, capsys):
    p, q = dirac_files
    assert cli.run(["solve", "--p", p, "--q", q, "--eps", "-1"]) == 2
    assert cli.run(["cost", "--p", p, "--q", q, "--eps", "nan", "--max-iter", "50"]) == 2
    assert "eps" in capsys.readouterr().err


def test_not_converged_exits_three(tmp_path, capsys):
    stream = ms.SeedSpec(99, 0).stream()
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    ms.write_measure(ms.uniform_on(stream.uniforms(8).reshape(4, 2)), p)
    ms.write_measure(ms.uniform_on(stream.uniforms(8).reshape(4, 2)), q)
    code = cli.run(["solve", "--p", str(p), "--q", str(q), "--eps", "0.05",
                    "--max-iter", "1"])
    assert code == 3
    assert "not converged" in capsys.readouterr().err


def _write_coverage_config(path, seed=17):
    path.write_text(
        "kind = coverage\nscenario = gaussian\ndims = 2\neps_list = 2\n"
        f"n_list = 25\nreplicates = 6\nalpha = 0.05\nseed = {seed}\n",
        encoding="utf-8",
    )


def test_coverage_command_writes_deterministic_file(monkeypatch, tmp_path, capsys):
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out1),
                    "--threads", "1"]) == 0
    pool_maps = force_pool(monkeypatch)  # n=25 is below the size gate
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out2),
                    "--threads", "3"]) == 0
    assert pool_maps == [3]
    stdout = capsys.readouterr().out
    assert "coverage" in stdout
    assert out1.read_bytes() == out2.read_bytes()
    # end to end equals the direct library call
    from entot import harness as hz
    result = hz.run_coverage(hz.load_config(cfg_path), threads=1)
    lib_out = tmp_path / "lib.csv"
    hz.emit(result, lib_out, hz.EmitFormat.CSV_TABLE)
    assert out1.read_bytes() == lib_out.read_bytes()


def test_coverage_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path, seed=17)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out1),
                    "--seed", "41", "--threads", "1"]) == 0
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out2),
                    "--seed", "41", "--threads", "1"]) == 0
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out3),
                    "--threads", "1"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_rate_command_plot_format(tmp_path, capsys):
    cfg_path = tmp_path / "rate.txt"
    cfg_path.write_text(
        "kind = bias_rate\nscenario = discrete\ndims = 2\neps_list = 1\n"
        "n_list = 10, 20\nreplicates = 4\nalpha = 0.05\nseed = 23\n",
        encoding="utf-8",
    )
    out = tmp_path / "rate.csv"
    assert cli.run(["rate", "--config", str(cfg_path), "--out", str(out),
                    "--format", "plot", "--threads", "1"]) == 0
    stdout = capsys.readouterr().out
    assert "slope" in stdout
    assert out.read_text(encoding="utf-8").startswith("curve,d,eps,row,x,y")


def test_coverage_plot_format(tmp_path, capsys):
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    out = tmp_path / "cov_plot.csv"
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out),
                    "--format", "plot", "--threads", "1"]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").startswith("curve,d,eps,n,coverage")


def test_emit_to_missing_directory_exits_four(tmp_path, capsys):
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    out = tmp_path / "no" / "such" / "dir" / "cov.csv"
    assert cli.run(["coverage", "--config", str(cfg_path), "--out", str(out),
                    "--threads", "1"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "cost", "divergence", "ci", "coverage", "rate"])
def test_unwritable_out_exits_four_before_any_solve(command, random_files, tmp_path, capsys,
                                                    monkeypatch):
    from entot import harness as hz
    for module in (sk, hz, inf):
        monkeypatch.setattr(module, "_solve_stack", lambda *a, **k: pytest.fail("solved"))
    if command == "coverage":
        _write_coverage_config(tmp_path / "cov.txt")
        inputs = ["--config", str(tmp_path / "cov.txt")]
    elif command == "rate":
        inputs = ["--config", str(Path(__file__).parents[1] / "configs" / "bias_rate_desk.txt")]
    else:
        inputs = ["--p", random_files[0], "--q", random_files[1], "--eps", "2"]
    out = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli.run([command, *inputs, "--out", str(out)]) == 4
    assert "cannot write" in capsys.readouterr().err
    assert not out.parent.exists()


def test_out_check_leaves_an_existing_file_as_it_is(tmp_path, capsys):
    # the solve runs out of maps (exit 3) after --out passed its check
    stream = ms.SeedSpec(99, 0).stream()
    p, q, out = tmp_path / "p.csv", tmp_path / "q.csv", tmp_path / "out.csv"
    ms.write_measure(ms.uniform_on(stream.uniforms(8).reshape(4, 2)), p)
    ms.write_measure(ms.uniform_on(stream.uniforms(8).reshape(4, 2)), q)
    out.write_bytes(b"kept\n")
    assert cli.run(["solve", "--p", str(p), "--q", str(q), "--eps", "0.05",
                    "--max-iter", "1", "--out", str(out)]) == 3
    assert out.read_bytes() == b"kept\n"
    assert cli.run(["solve", "--p", str(p), "--q", str(q), "--eps", "0.05",
                    "--max-iter", "1", "--out", str(tmp_path / "new.csv")]) == 3
    assert not (tmp_path / "new.csv").exists()  # the check creates no file
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert cli.run(["solve", "--help"]) == 0
    capsys.readouterr()
    args = cli.build_parser().parse_args(["cost", "--p", "p", "--q", "q", "--eps", "1"])
    default = SolverConfig(eps=1.0)
    assert (args.tol, args.max_iter) == (default.tol, default.max_iter)


def test_kind_mismatch_exits_four(tmp_path, capsys):
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    assert cli.run(["rate", "--config", str(cfg_path)]) == 4
    capsys.readouterr()


def test_non_finite_config_eps_exits_four_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    cfg_path = tmp_path / "cov.txt"
    for eps_list in ("nan", "2, nan", "inf"):
        cfg_path.write_text(
            f"kind = coverage\nscenario = gaussian\ndims = 2\neps_list = {eps_list}\n"
            "n_list = 25\nreplicates = 6\nalpha = 0.05\nseed = 17\n",
            encoding="utf-8",
        )
        assert cli.run(["coverage", "--config", str(cfg_path)]) == 4
        assert "eps" in capsys.readouterr().err
    for line, name in (("tol = nan", "tol"), ("tol = -1", "tol"), ("max_iter = 0", "max_iter")):
        cfg_path.write_text(
            "kind = coverage\nscenario = gaussian\ndims = 2\neps_list = 2\n"
            f"n_list = 25\nreplicates = 6\nalpha = 0.05\nseed = 17\n{line}\n",
            encoding="utf-8",
        )
        assert cli.run(["coverage", "--config", str(cfg_path)]) == 4
        assert name in capsys.readouterr().err


def test_oversized_config_sample_exits_four_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    cfg_path = tmp_path / "cov.txt"
    cfg_path.write_text(
        "kind = coverage\nscenario = gaussian\ndims = 2\neps_list = 2\n"
        "n_list = 1000000000000\nreplicates = 6\nalpha = 0.05\nseed = 17\n",
        encoding="utf-8",
    )
    assert cli.run(["coverage", "--config", str(cfg_path)]) == 4
    assert "DENSE_ENTRY_LIMIT" in capsys.readouterr().err


def test_measure_file_without_discrete_scenario_exits_four_before_any_solve(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    with cfg_path.open("a", encoding="utf-8") as fh:
        fh.write(f"p_file = {tmp_path / 'missing.csv'}\n")
    assert cli.run(["coverage", "--config", str(cfg_path)]) == 4
    assert "p_file" in capsys.readouterr().err


def test_thread_counts_below_one_exit_two_before_any_solve(tmp_path, capsys, monkeypatch):
    from entot import harness as hz
    monkeypatch.setattr(hz, "_scenario_for", lambda cfg: pytest.fail("ran"))
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    for threads in ("0", "-1"):
        assert cli.run(["coverage", "--config", str(cfg_path), "--threads", threads]) == 2
        assert "threads" in capsys.readouterr().err


def test_seeds_outside_64_bits_exit_two_before_the_config_is_read(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(cli, "load_config", lambda *a, **k: pytest.fail("read"))
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    cfg_path = tmp_path / "cov.txt"
    _write_coverage_config(cfg_path)
    for command, seed in (("coverage", "-1"), ("rate", str(2**64))):
        assert cli.run([command, "--config", str(cfg_path), "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err


def test_config_seed_outside_64_bits_exits_four_before_any_solve(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    cfg_path = tmp_path / "cov.txt"
    cfg_path.write_text(
        "kind = coverage\nscenario = gaussian\ndims = 2\neps_list = 2\n"
        "n_list = 25\nreplicates = 6\nalpha = 0.05\nseed = -1\n",
        encoding="utf-8",
    )
    assert cli.run(["coverage", "--config", str(cfg_path)]) == 4
    assert "seed" in capsys.readouterr().err


def test_unknown_config_key_exits_four(tmp_path, capsys):
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text("kind = coverage\nwat = 1\n", encoding="utf-8")
    assert cli.run(["coverage", "--config", str(cfg_path)]) == 4
    capsys.readouterr()


def test_console_entry_point(dirac_files):
    p, q = dirac_files
    proc = subprocess.run(
        [sys.executable, "-m", "entot.cli", "cost", "--p", p, "--q", q, "--eps", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(4.5, abs=1e-10)
