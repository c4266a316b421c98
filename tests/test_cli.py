"""Command-line interface: flags, config files, exit codes, CSV output."""

import threading

import pytest

from rtga import cli, runner
from rtga.cli import main

FAST = ["--runs", "2", "--samples", "300", "--seed", "1"]


def test_sysid_prints_summary(capsys):
    assert main(["sysid", *FAST]) == 0
    out = capsys.readouterr().out
    assert "mode: sysid" in out
    assert "tail NMSD:" in out


def test_reuse_and_censor_flags(capsys):
    argv = ["sysid", *FAST, "--algo", "proposed", "--pce", "0.5",
            "--reuse", "2", "--window", "50"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "measured censoring ratio:" in out
    assert "reuse-pass censoring ratio:" in out


def test_out_flag_writes_csv(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    assert main(["sysid", *FAST, "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {target}" in out
    lines = target.read_text().splitlines()
    assert lines[0] == "iteration,nmsd_db"
    assert len(lines) == 301


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sysid", *FAST, "--out", str(a)]) == 0
    assert main(["sysid", *FAST, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_censor_ratio_exits_2(capsys):
    assert main(["sysid", "--pce", "2.0"]) == 2
    err = capsys.readouterr().err
    assert err
    assert "Traceback" not in err


def test_negative_step_exits_2(capsys):
    assert main(["sysid", "--mu", "-0.5"]) == 2
    assert capsys.readouterr().err


def test_bad_case_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["sysid", "--case", "9"])
    assert exc.value.code == 2


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_wrong_echo_path_length_exits_1(tmp_path, capsys):
    echo = tmp_path / "short.txt"
    echo.write_text("0.1 0.2 0.3\n")
    ini = tmp_path / "aec.ini"
    ini.write_text(f"[aec]\necho_path = {echo}\n")
    rc = main(["aec", "--config", str(ini), "--runs", "1", "--samples", "600"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "512" in err


def test_out_of_memory_exits_1(monkeypatch, capsys):
    def too_large(cfg):
        raise MemoryError("Unable to allocate 576. MiB for an array")

    monkeypatch.setitem(cli._RUNNERS, "sysid", too_large)
    assert main(["sysid", *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 576. MiB")
    assert "Traceback" not in err


def test_fault_in_producer_thread_exits_1(monkeypatch, capsys):
    # AEC's 512-tap fill runs on the provider's producer thread; a fault
    # there reaches the engine's thread and exits like any runtime error.
    threads = []

    def failing(*args, **kwargs):
        threads.append(threading.current_thread())
        raise MemoryError("Unable to allocate 2.00 MiB for an array")

    monkeypatch.setattr(runner, "synthesize_eiv_arrays", failing)
    assert main(["aec", "--runs", "2", "--samples", "1200", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 2.00 MiB")
    assert "Traceback" not in err
    assert threads and threading.main_thread() not in threads


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["sysid", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_sweep_writes_grid_csv(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[sweep]\npoints = 5\ndraws = 50\n")
    target = tmp_path / "grid.csv"
    rc = main(["sweep", "--config", str(ini), "--out", str(target)])
    assert rc == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "iteration,w1,w2,mean_cost"
    assert len(lines) == 26


def test_theory_prints_table(capsys):
    rc = main(["theory", "--runs", "2", "--samples", "600"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "setting gaussian, variance" in out
    assert "gap" in out
