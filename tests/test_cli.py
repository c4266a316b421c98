"""Command-line interface: flags, config files, exit codes, CSV output."""

import contextlib
import io
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtga import cli, runner
from rtga.cli import main
from rtga.config import SETTINGS, _float_list
from rtga.dataio import save_wav

from fills import assert_reaped, fill_pids, record_fills

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


@pytest.mark.parametrize(
    ("out", "problem"),
    [("missing/x.csv", "directory not found: {}/missing"), ("", "{} is a directory")],
    ids=["missing_directory", "directory"],
)
def test_unusable_out_exits_2_before_the_run(monkeypatch, tmp_path, capsys, out, problem):
    ran = []
    monkeypatch.setitem(cli._SUBCOMMANDS, "sysid", (ran.append, "sysid"))
    target = str(tmp_path / out)
    assert main(["sysid", *FAST, "--out", target]) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid configuration:\n  out: {problem.format(tmp_path)}\n"
    assert not ran


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


def test_explicit_shift_past_the_samples_exits_2(tmp_path, capsys):
    # An unset shift is mid-stream, so only a set one can leave the range;
    # the message names the valid range.
    ini = tmp_path / "shift.ini"
    ini.write_text("[experiment]\nshift_time = 8000\n")
    assert main(["tracking", "--config", str(ini), "--samples", "4000", "--runs", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid configuration:\n  experiment.shift_time must lie inside the "
        "sample range, in [1, 3999], got 8000\n"
    )


def test_reuse_window_below_the_count_exits_2(capsys):
    # the message names the INI keys and their values
    assert main(["sysid", "--reuse", "3", "--window", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid configuration:\n  reuse.window (3) must be at least "
        "reuse.count + 1 (4)\n"
    )


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


def test_flag_help_ends_with_its_config_key(capsys):
    # --help holds the flag -> config-key table: each flag's line ends with
    # the [section] key of its SETTINGS row
    with pytest.raises(SystemExit) as exc:
        main(["sysid", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for (section, key), s in SETTINGS.items():
        if s.flag:
            assert f"{s.help} ([{section}] {key})" in out, s.flag


def test_wrong_echo_path_length_exits_1(tmp_path, capsys):
    # a path of 512 zeros has the right length but nothing to identify:
    # the NMSD would divide by its zero norm
    for name, text, expected in (
        ("short.txt", "0.1 0.2 0.3\n", "512"),
        ("zeros.txt", "0.0\n" * 512, "no nonzero tap"),
    ):
        echo = tmp_path / name
        echo.write_text(text)
        ini = tmp_path / "aec.ini"
        ini.write_text(f"[aec]\necho_path = {echo}\n")
        rc = main(["aec", "--config", str(ini), "--runs", "1", "--samples", "600"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert expected in err


def test_aec_order_other_than_512_exits_2(tmp_path, capsys):
    # aec identifies a 512-tap path: another order is a configuration
    # error, reported with the file's other problems
    ini = tmp_path / "aec.ini"
    ini.write_text("[experiment]\norder = 9\nruns = 0\n")
    rc = main(["aec", "--config", str(ini), "--samples", "600"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "experiment.order must be 512 in aec mode" in err
    assert "experiment.runs must be >= 1" in err
    assert "Traceback" not in err


def test_out_of_memory_exits_1(monkeypatch, capsys):
    def too_large(cfg):
        raise MemoryError("Unable to allocate 576. MiB for an array")

    monkeypatch.setitem(cli._SUBCOMMANDS, "sysid", (too_large, "sysid"))
    assert main(["sysid", *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 576. MiB")
    assert "Traceback" not in err


def test_fault_in_producer_exits_1(monkeypatch, tmp_path, capsys):
    # AEC's 512-tap fill runs in the provider's forked producer; a fault
    # there reaches the engine's process and exits like any runtime error.
    log = tmp_path / "fills"
    record_fills(monkeypatch, log, fault_at=1)
    assert main(["aec", "--runs", "2", "--samples", "1200", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 2.00 MiB")
    assert "Traceback" not in err
    pids = fill_pids(log)
    assert pids and os.getpid() not in pids
    assert_reaped(pids)


def test_killed_producer_exits_1(monkeypatch, capsys):
    # SIGKILL the pass's producer mid-stream: one error line, no traceback.
    step = runner.StreamProvider.step
    killed = []

    def stepping(self, i):
        if i == 1500:
            assert self.forks
            killed.append(self._producer.pid)
            os.kill(killed[0], signal.SIGKILL)
        return step(self, i)

    monkeypatch.setattr(runner.StreamProvider, "step", stepping)
    assert main(["sysid", "--runs", "3", "--samples", "3000", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: the stream producer (pid {killed[0]}) ended without answering "
        "(killed by signal 9)\n"
    )
    assert_reaped(killed)


def test_short_far_end_wav_exits_1(tmp_path, capsys):
    wav = tmp_path / "far.wav"
    save_wav(str(wav), 0.5 * np.sin(np.arange(700) / 10.0))
    ini = tmp_path / "aec.ini"
    ini.write_text(f"[aec]\nfar_end = {wav}\n")
    rc = main(["aec", "--config", str(ini), "--runs", "1", "--samples", "1000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {wav}: far-end audio has 700 samples; 1000 requested\n"


@pytest.mark.parametrize(
    ("content", "reason"),
    [
        (b"this is a plain text file, not audio at all\n", "file does not start with RIFF id"),
        (b"RIFF", "it ends early"),
        (b"RIFF\x04\x00\x00\x00WAVE", "fmt chunk and/or data chunk missing"),
    ],
    ids=["text", "riff_only", "header_only"],
)
def test_malformed_far_end_wav_exits_1(tmp_path, capsys, content, reason):
    wav = tmp_path / "far.wav"
    wav.write_bytes(content)
    ini = tmp_path / "aec.ini"
    ini.write_text(f"[aec]\nfar_end = {wav}\n")
    rc = main(["aec", "--config", str(ini), "--runs", "1", "--samples", "1000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot read WAV file {wav}: {reason}\n"


def _wav(path, channels, width, frames):
    import wave

    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(8000)
        fh.writeframes(b"\x00" * channels * width * frames)


def _float_wav(path, frames):
    # wave writes PCM only, so the IEEE-float header (format tag 3) is packed by hand
    import struct

    data = b"\x00" * 4 * frames
    fmt = struct.pack("<HHIIHH", 3, 1, 8000, 4 * 8000, 4, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize(
    ("key", "name", "write", "problem"),
    [
        ("far_end", "far.wav", lambda p: _wav(p, 2, 2, 10),
         "cannot read WAV file {}: unsupported channel count 2; only mono input is supported"),
        ("far_end", "far.wav", lambda p: _wav(p, 1, 1, 10),
         "cannot read WAV file {}: unsupported sample width 8 bits; "
         "only 16-bit PCM is supported"),
        ("far_end", "far.wav", lambda p: _wav(p, 1, 2, 0), "{}: far-end audio is empty"),
        ("far_end", "far.wav", lambda p: _float_wav(p, 10),
         "cannot read WAV file {}: unknown format: 3"),
        ("echo_path", "echo.txt", lambda p: p.write_text("0.0\n" * 512),
         "{}: echo path has no nonzero tap"),
    ],
    ids=["stereo_wav", "8_bit_wav", "empty_wav", "float_wav", "zero_echo_path"],
)
def test_unusable_aec_file_exits_1_naming_the_file(tmp_path, capsys, key, name, write, problem):
    asset = tmp_path / name
    write(asset)
    ini = tmp_path / "aec.ini"
    ini.write_text(f"[aec]\n{key} = {asset}\n")
    rc = main(["aec", "--config", str(ini), "--runs", "1", "--samples", "1000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {problem.format(asset)}\n"


def test_non_utf8_echo_path_exits_1_naming_the_file(tmp_path, capsys):
    taps = tmp_path / "echo.txt"
    taps.write_bytes(b"0.01\n" * 99 + b"0.01\xff\n" + b"0.01\n" * 412)
    ini = tmp_path / "aec.ini"
    ini.write_text(f"[aec]\necho_path = {taps}\n")
    rc = main(["aec", "--config", str(ini), "--runs", "1", "--samples", "1000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {taps}:100: cannot parse '0.01\\udcff' as a real number\n"


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_echo_tap_exits_1_with_one_line(tmp_path, capsys, token):
    # rejected with its line, before it can pass for the filter's divergence
    taps = tmp_path / "echo.txt"
    rows = ["0.01"] * 512
    rows[99] = token
    taps.write_text("\n".join(rows) + "\n")
    ini = tmp_path / "aec.ini"
    ini.write_text(f"[aec]\necho_path = {taps}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["aec", "--config", str(ini), "--runs", "2", "--samples", "2000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {taps}:100: tap {token!r} is not finite\n"


def test_overflowing_step_exits_1_with_one_line(capsys):
    # numpy's overflow warnings stay quiet; the engine's own error names the runs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["sysid", "--runs", "2", "--samples", "60", "--mu", "1e300"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        "error: divergence at iteration 9 in run(s) [0, 1]; |W - w_o|^2 is non-finite or"
    )


def test_overflowing_sharded_step_names_iteration_9(monkeypatch, capsys):
    # The default sysid pass (1000 runs, 8000 samples, no reuse) runs in
    # two forked shards on two CPUs; the one check sees every run of each
    # block, so the error still names iteration 9 and all 1000 runs.
    monkeypatch.setattr(runner, "_cpus", lambda: 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["sysid", "--mu", "1e300"])
    assert rc == 1
    assert len(forks) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        "error: divergence at iteration 9 in run(s) [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,"
    )
    assert " 998, 999]; |W - w_o|^2 is non-finite or" in err


def test_overflowing_theory_variance_exits_1_with_one_line(tmp_path, capsys):
    # sigma_i^4 overflows in the steady-state analysis, which says so
    # instead of leaking numpy's warnings into a failed eigensolver
    ini = tmp_path / "theory.ini"
    ini.write_text("[theory]\nvariances = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["theory", "--config", str(ini), "--runs", "2", "--samples", "60"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: steady-state analysis overflows at noise variance 1e+300\n"


def test_theory_negative_curvature_exits_1_naming_it(tmp_path, capsys):
    # a Laplace-shaped error at b = 1.9 leaves the first-order curvature
    # negative definite, so no step is stable, not merely the configured one
    ini = tmp_path / "theory.ini"
    ini.write_text("[algorithm]\nb = 1.9\n[theory]\nalpha = 1\noutput_family = laplace\n")
    rc = main(["theory", "--config", str(ini), "--runs", "2", "--samples", "500"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: ") and "non-positive curvature" in err


def test_full_shape_a_zero_exits_2(tmp_path, capsys):
    ini = tmp_path / "a0.ini"
    ini.write_text("[algorithm]\nname = rtga\na = 0\n")
    assert main(["sysid", "--config", str(ini), *FAST]) == 2
    err = capsys.readouterr().err
    assert "a = 0 is the logarithmic limit" in err
    assert "Traceback" not in err


def test_limit_family_runs_with_a_equal_to_b(tmp_path, capsys):
    ini = tmp_path / "tlmp.ini"
    ini.write_text("[algorithm]\nname = tlmp\na = 2\nb = 2\nmu = 0.001\n")
    assert main(["sysid", "--config", str(ini), *FAST]) == 0
    assert "mode: sysid" in capsys.readouterr().out


def test_limit_family_predicted_cost_has_no_a_term(capsys):
    assert main(["sysid", "--algo", "gdtls", "--runs", "2", "--samples", "200"]) == 0
    out = capsys.readouterr().out
    assert "40.0 additions, 54.0 multiplications, 3 nonlinear" in out


def test_config_file_reports_every_problem_together(tmp_path, capsys):
    # an unknown key no longer hides the file's bad values
    ini = tmp_path / "bad.ini"
    ini.write_text("[experiment]\nstep = 5\nruns = many\n[censoring]\np_ce = 2\n")
    assert main(["sysid", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:\n")
    assert "\n  unknown key 'step' in [experiment]; expected one of" in err
    assert "\n  experiment.runs: cannot interpret 'many' as int\n" in err
    assert "\n  censoring.p_ce must lie in [0, 1), got 2.0\n" in err
    assert "Traceback" not in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["sysid", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[experiment]\nruns = 2\xff\n")
    assert main(["sysid", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {ini}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


def test_sweep_writes_grid_csv(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[sweep]\npoints = 5\ndraws = 50\n")
    target = tmp_path / "grid.csv"
    rc = main(["sweep", "--config", str(ini), "--out", str(target)])
    assert rc == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "iteration,w1,w2,mean_cost"
    assert len(lines) == 26


def test_sweep_with_a_huge_b_exits_0_without_warnings(tmp_path, capsys):
    # |e~|^b overflows to inf on the way to the cost's finite ceiling
    ini = tmp_path / "b.ini"
    ini.write_text("[algorithm]\nb = 1e300\n[sweep]\npoints = 5\ndraws = 50\n")
    assert main(["sweep", "--config", str(ini)]) == 0
    assert capsys.readouterr().err == ""


def test_theory_prints_table(capsys):
    rc = main(["theory", "--runs", "2", "--samples", "600"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "setting gaussian, variance" in out
    assert "gap" in out


@pytest.mark.parametrize("algo", ["gdtls", "mtc", "mtgc", "tlmp", "tlmf", "ltls"])
def test_theory_rejects_limit_family(capsys, algo):
    # theory mode analyses the full cost shape, so a limit family is a
    # config error, whether or not its preset has a step size for the case
    assert main(["theory", *FAST, "--algo", algo]) == 2
    err = capsys.readouterr().err
    assert f"theory mode analyses the full RTGA cost shape; {algo!r} is a limit family" in err
    assert "Traceback" not in err


def test_theory_rejects_reuse(capsys):
    # the prediction models no data reuse, so at --reuse 3 it would stand
    # about 3 dB below the simulation it is printed next to
    assert main(["theory", "--reuse", "3", "--runs", "5", "--samples", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid configuration:\n"
        "  theory mode predicts the steady state without data reuse; "
        "set reuse.count = 0 (--reuse 0)\n"
    )


def test_theory_proposed_matches_rtga(capsys):
    # both take the comparison preset, so they print the same table
    tables = []
    for algo in ("rtga", "proposed"):
        assert main(["theory", *FAST, "--algo", algo]) == 0
        tables.append(capsys.readouterr().out)
    assert "setting gaussian, variance" in tables[0]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("mode, section, key", [
    ("sysid", "algorithm", "mu"),
    ("sysid", "algorithm", "a"),
    ("sysid", "algorithm", "b"),
    ("sysid", "algorithm", "c"),
    ("theory", "theory", "variances"),
    ("theory", "theory", "alpha"),
    ("sweep", "sweep", "min"),
    ("sweep", "sweep", "max"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, value, mode, section, key):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert main([mode, "--config", str(ini), "--runs", "2", "--samples", "60"]) == 2
    err = capsys.readouterr().err
    assert f"{key} must" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_step_flag_exits_2(capsys, value):
    assert main(["sysid", *FAST, "--mu", value]) == 2
    err = capsys.readouterr().err
    assert "mu must be finite" in err
    assert "Traceback" not in err


# Non-size keys each mode reads; runs, samples, order and the sweep's
# points and draws stay fixed, since large values allocate.
_COMMON_KEYS = {
    "experiment": ("case", "seed"),
    "algorithm": ("name", "a", "b", "c", "mu"),
    "censoring": ("p_ce", "window", "tau", "estimator"),
    "reuse": ("scheme", "count", "window"),
}
_MODE_KEYS = {
    "sysid": {},
    "tracking": {"experiment": ("shift_time", "shift_amount")},
    "theory": {"theory": ("variances", "output_family", "alpha")},
    "sweep": {"sweep": ("min", "max")},
}
_FLOAT_KEYS = {sk for sk, s in SETTINGS.items() if s.conv in (float, _float_list)}
# the float flags: an int flag or a choice fails in argparse itself
_FLAG_KEYS = {f"--{s.flag}": sk for sk, s in SETTINGS.items() if s.flag and sk in _FLOAT_KEYS}
_POOL = ["nan", "inf", "-inf", "0", "-1", "1e300", "abc", ""]
_NON_FINITE = {"nan", "inf", "-inf"}


@st.composite
def _fuzzed_run(draw):
    mode = draw(st.sampled_from(sorted(_MODE_KEYS)))
    keys = [
        (section, key)
        for table in (_COMMON_KEYS, _MODE_KEYS[mode])
        for section, names in table.items()
        for key in names
    ]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    values = {sk: draw(st.sampled_from(_POOL)) for sk in chosen}
    flags = draw(st.dictionaries(
        st.sampled_from(sorted(_FLAG_KEYS)), st.sampled_from(_POOL[:6]), max_size=2
    ))
    return mode, values, flags


@settings(max_examples=40, deadline=None)
@given(run=_fuzzed_run())
def test_config_and_flag_fuzz_exits_cleanly(tmp_path_factory, run):
    mode, values, flags = run
    # a small sweep grid, and a shift inside the 60 samples unless fuzzed
    sections = {
        "sweep": {"sweep": {"points": "5", "draws": "50"}},
        "tracking": {"experiment": {"shift_time": "30"}},
    }.get(mode, {})
    for (section, key), value in values.items():
        sections.setdefault(section, {})[key] = value
    ini = tmp_path_factory.mktemp("fuzz") / "fuzz.ini"
    ini.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    ))
    argv = [mode, "--config", str(ini), "--runs", "2", "--samples", "60"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    # a flag wins over the file's value of its key
    used = {**values, **{_FLAG_KEYS[flag]: value for flag, value in flags.items()}}
    if any(sk in _FLOAT_KEYS and v in _NON_FINITE for sk, v in used.items()):
        assert rc == 2, err
