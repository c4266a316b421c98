"""Strict config ingestion and file formats (CSV, WAV, echo path)."""

import re
from pathlib import Path

import numpy as np
import pytest

from rtga import cli
from rtga.censoring import CensorConfig
from rtga.config import (
    MODES,
    SETTINGS,
    AecConfig,
    AlgorithmConfig,
    ConfigError,
    ExperimentConfig,
    SweepConfig,
    TheoryConfig,
    build_config,
    read_config_file,
)
from rtga.dataio import (
    AecAssets,
    AudioClip,
    load_echo_path,
    load_wav,
    read_csv,
    save_echo_path,
    save_wav,
    synth_echo_path,
    synth_far_end,
    write_csv,
)


def test_build_defaults_per_mode():
    sysid = build_config("sysid", None, {"runs": 5})
    assert (sysid.order, sysid.n_samples, sysid.mc_runs) == (9, 8000, 5)
    aec = build_config("aec", None, {"runs": 2, "samples": 4000})
    assert aec.order == 512
    tracking = build_config("tracking", None, {"runs": 2})
    assert tracking.n_samples == 16000
    theory = build_config("theory", None, {})
    assert (theory.n_samples, theory.mc_runs) == (30_000, 200)
    sweep = build_config("sweep", None, {})
    assert sweep.order == 2
    # Every other default comes from the config dataclasses, in every mode.
    for mode in MODES:
        cfg = build_config(mode, None, {})
        assert (cfg.shift_time, cfg.shift_amount) == (
            ExperimentConfig.shift_time, ExperimentConfig.shift_amount,
        )
        assert (cfg.censoring.window, cfg.censoring.tau) == (
            CensorConfig.window, CensorConfig.tau,
        )
        assert cfg.theory == TheoryConfig()
        assert cfg.sweep == SweepConfig()
        assert cfg.aec == AecConfig()


def test_estimator_auto_rule():
    c1 = build_config("sysid", None, {"runs": 2, "pce": 0.5})
    assert c1.censoring.estimator == "conventional"
    c2 = build_config("sysid", None, {"runs": 2, "pce": 0.5, "case": 2})
    assert c2.censoring.estimator == "robust_median"


def test_reuse_flag_implies_idr():
    cfg = build_config("sysid", None, {"runs": 2, "reuse": 3})
    assert cfg.reuse.scheme == "idr" and cfg.reuse.l_reused == 3


def test_tracking_reuse_window_defaults_to_200():
    cfg = build_config("tracking", None, {"runs": 2, "reuse": 3})
    assert cfg.reuse.window_cap == 200
    sysid = build_config("sysid", None, {"runs": 2, "reuse": 3})
    assert sysid.reuse.window_cap is None


def test_preset_step_sizes_resolve():
    cfg = build_config("sysid", None, {"runs": 2, "algo": "rtga"})
    p = cfg.resolved_params()
    assert p.family is None
    assert (p.a, p.b, p.c, p.mu) == (-100.0, 2.0, 0.2, 0.022)
    cfg = build_config("sysid", None, {"runs": 2, "algo": "proposed", "case": 3})
    p = cfg.resolved_params()
    assert (p.b, p.c, p.mu) == (1.5, 0.1, 0.155)
    assert p.phi == pytest.approx(10.0)
    cfg = build_config("sysid", None, {"runs": 2, "algo": "gdtls"})
    p = cfg.resolved_params()
    assert p.family == "tlmp" and (p.b, p.c, p.mu) == (2.0, 2.0, 0.0022)
    assert p.a is None
    cfg = build_config("sysid", None, {"runs": 2, "algo": "mtgc", "case": 4})
    p = cfg.resolved_params()
    assert p.family == "exp" and (p.b, p.mu) == (6.0, 0.055)


def test_families_without_preset_mu_require_explicit_mu():
    # tlmp keeps both the error order and the step size open.
    file_values = {"algorithm": {"name": "tlmp", "b": "3"}}
    with pytest.raises(ConfigError, match="mu"):
        build_config("sysid", file_values, {"runs": 2})
    cfg = build_config("sysid", file_values, {"runs": 2, "mu": 0.01})
    p = cfg.resolved_params()
    assert p.family == "tlmp" and p.mu == 0.01 and p.b == 3.0
    # tlmf pins b = 4 so only mu is missing.
    with pytest.raises(ConfigError, match="mu"):
        build_config("sysid", None, {"runs": 2, "algo": "tlmf"})
    cfg = build_config("sysid", None, {"runs": 2, "algo": "tlmf", "mu": 0.02})
    p = cfg.resolved_params()
    assert p.family == "tlmp" and p.b == 4.0


def test_full_shape_rejects_a_zero():
    # a = 0 is the ltls limit, not a point of the full shape: a config
    # error (exit 2) that names a, before anything runs.
    with pytest.raises(ConfigError, match="a = 0"):
        build_config("sysid", {"algorithm": {"name": "rtga", "a": "0"}}, {"runs": 2})


def test_limit_family_ignores_a():
    # a limit family's cost has no a; a given one must be finite, and that
    # is all, so a = b is no error.
    file_values = {"algorithm": {"name": "tlmp", "a": "2", "b": "2", "mu": "0.001"}}
    p = build_config("sysid", file_values, {"runs": 2}).resolved_params()
    assert (p.family, p.b, p.mu) == ("tlmp", 2.0, 0.001)
    file_values["algorithm"]["a"] = "nan"
    with pytest.raises(ConfigError, match="a must be finite"):
        build_config("sysid", file_values, {"runs": 2})


def test_theory_params_take_comparison_preset_and_overrides():
    # Theory's noise pairs have equal variances, so phi is 1 even in case 3,
    # whose own pair gives 10; unset fields take the comparison preset.
    cfg = build_config("theory", None, {"runs": 2, "case": 3})
    p = cfg.resolved_params()
    assert (p.family, p.a, p.b, p.c, p.mu, p.phi) == (None, -100.0, 2.0, 0.1, 0.05, 1.0)
    values = {"algorithm": {"a": "-50", "b": "1.5", "c": "0.3", "mu": "0.02"}}
    p = build_config("theory", values, {"runs": 2, "case": 3}).resolved_params()
    assert (p.a, p.b, p.c, p.mu, p.phi) == (-50.0, 1.5, 0.3, 0.02, 1.0)
    p = build_config("theory", values, {"runs": 2, "mu": 0.3}).resolved_params()
    assert p.mu == 0.3


def test_mu_override_beats_preset():
    cfg = build_config("sysid", None, {"runs": 2, "algo": "rtga", "mu": 0.5})
    assert cfg.resolved_params().mu == 0.5


def test_validation_collects_every_error():
    with pytest.raises(ConfigError) as info:
        build_config("sysid", None, {"runs": 0, "case": 9, "samples": 3, "pce": 2.0})
    msg = str(info.value)
    assert "case" in msg and "runs" in msg
    assert msg.count("\n") >= 2  # several problems reported at once


@pytest.mark.parametrize("mode", ["sysid", "theory"])
def test_readme_config_example_builds(tmp_path, mode):
    # The README's INI block is strict INI: comments on their own lines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config file\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    values = read_config_file(str(path))
    overrides = {}
    if mode == "theory":
        # theory mode rejects the example's data reuse; --reuse 0 turns it off
        with pytest.raises(ConfigError, match="without data reuse"):
            build_config(mode, values, {})
        overrides = {"reuse": 0}
    cfg = build_config(mode, values, overrides)
    assert (cfg.case_id, cfg.order, cfg.mc_runs) == (2, 9, 100)
    assert cfg.algorithm.name == "proposed" and cfg.algorithm.mu == 0.0098
    assert cfg.reuse.window_cap == 200 and cfg.theory.alpha == 2.0


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="algorithm"):
        build_config("sysid", None, {"runs": 2, "algo": "lms"})


def test_tracking_shift_bounds():
    with pytest.raises(ConfigError, match="shift"):
        cfg = build_config("tracking", None, {"runs": 2})
        cfg.shift_amount = 9
        cfg.validate()


def test_theory_validation():
    cfg = build_config("theory", None, {})
    cfg.theory = type(cfg.theory)(variances=(0.1,), output_family="cauchy")
    with pytest.raises(ConfigError, match="output_family"):
        cfg.validate()


def test_theory_takes_any_order():
    # the steady state is one L x L solve, so theory mode caps no order
    assert build_config("theory", {"experiment": {"order": "65"}}, {}).order == 65


def test_sweep_requires_two_taps():
    with pytest.raises(ConfigError, match="set order = 2, got 3"):
        build_config("sweep", {"experiment": {"order": "3"}}, {"runs": 2})


def test_unknown_override_names_are_errors():
    with pytest.raises(ConfigError) as info:
        build_config("sysid", None, {"windw": 3, "sample": 10})
    msg = str(info.value)
    assert "unknown override 'windw'" in msg and "unknown override 'sample'" in msg


def test_unknown_file_names_are_errors():
    with pytest.raises(ConfigError) as info:
        build_config("sysid", {"experiment": {"sample": "10"}, "bogus": {"x": "1"}}, {})
    msg = str(info.value)
    assert "unknown key 'sample' in [experiment]" in msg and "unknown section [bogus]" in msg


def test_wrong_typed_overrides_are_errors():
    with pytest.raises(ConfigError) as info:
        build_config("sysid", None, {"runs": "5", "mu": "0.1"})
    msg = str(info.value)
    assert "override 'runs': expected int, got '5'" in msg
    assert "override 'mu': expected float, got '0.1'" in msg
    with pytest.raises(ConfigError, match="override 'runs': expected int, got True"):
        build_config("sysid", None, {"runs": True})
    assert build_config("sysid", None, {"runs": 2, "mu": 1}).algorithm.mu == 1


_FLAG_TEXT = {
    "runs": "7", "samples": "9000", "seed": "11", "case": "3", "algo": "proposed",
    "mu": "0.004", "pce": "0.5", "reuse": "2", "window": "150",
}


@pytest.mark.parametrize("section, key", [sk for sk, s in SETTINGS.items() if s.flag])
def test_flag_sets_its_ini_key(monkeypatch, section, key):
    # the flag and the file key are one setting: same value, same config
    setting = SETTINGS[section, key]
    raw = _FLAG_TEXT[setting.flag]
    value = setting.conv(raw)
    from_file = build_config("tracking", {section: {key: raw}}, {})
    assert from_file == build_config("tracking", None, {setting.flag: value})
    # and the CLI hands build_config the flag converted as the file text is
    seen = {}

    def capture(mode, file_values, overrides):
        seen.update(overrides)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "build_config", capture)
    assert cli.main(["tracking", f"--{setting.flag}", raw]) == 2
    assert seen[setting.flag] == value and type(seen[setting.flag]) is type(value)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\n"
        "case = 2\n"
        "samples = 500\n"
        "runs = 3\n"
        "seed = 11\n"
        "[algorithm]\n"
        "name = proposed\n"
        "mu = 0.004\n"
        "[censoring]\n"
        "p_ce = 0.5\n"
        "window = 11\n"
        "[reuse]\n"
        "scheme = idr\n"
        "count = 2\n"
        "window = 150\n"
    )
    cfg = build_config("sysid", read_config_file(str(path)), {})
    assert cfg.case_id == 2 and cfg.n_samples == 500 and cfg.base_seed == 11
    assert cfg.algorithm.name == "proposed" and cfg.algorithm.mu == 0.004
    assert cfg.censoring.p_ce == 0.5 and cfg.censoring.window == 11
    assert cfg.reuse.l_reused == 2 and cfg.reuse.window_cap == 150


def test_config_file_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nstep = 5\n")
    with pytest.raises(ConfigError, match="step"):
        build_config("sysid", read_config_file(str(path)), {})


def test_config_file_unknown_section_is_hard_error(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[filters]\nname = rtga\n")
    with pytest.raises(ConfigError, match="filters"):
        build_config("sysid", read_config_file(str(path)), {})


def test_config_file_bad_value_reports_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nruns = many\n")
    with pytest.raises(ConfigError, match="runs"):
        build_config("sysid", read_config_file(str(path)), {})


def test_config_file_missing(tmp_path):
    with pytest.raises((ConfigError, OSError)):
        read_config_file(str(tmp_path / "absent.ini"))


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nruns = 7\nseed = 3\n")
    cfg = build_config("sysid", read_config_file(str(path)), {"runs": 2})
    assert cfg.mc_runs == 2 and cfg.base_seed == 3


def test_resolved_params_requires_case_entry():
    cfg = ExperimentConfig(mode="sysid", mc_runs=2)
    cfg.algorithm = AlgorithmConfig(name="rtga")
    cfg.case_id = 1
    assert cfg.resolved_params().mu == 0.022


# --- CSV ---


def test_write_csv_shape_and_formatting(tmp_path):
    path = tmp_path / "curve.csv"
    write_csv({"nmsd_db": np.array([0.0, -300.0, -29.123456])}, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "iteration,nmsd_db"
    assert lines[1] == "0,0.00000"
    assert lines[2] == "1,-300.000"
    assert lines[3] == "2,-29.1235"  # six significant digits


def test_csv_round_trip_six_significant_digits(tmp_path):
    path = tmp_path / "curve.csv"
    values = np.array([-29.663412345, 1.0000049, 123456.789])
    write_csv({"v": values}, str(path))
    back = read_csv(str(path))["v"]
    np.testing.assert_allclose(back, values, rtol=1e-5)


def test_write_csv_multiple_columns(tmp_path):
    path = tmp_path / "two.csv"
    write_csv({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,a,b"
    assert lines[1].startswith("0,1.00000,3.00000")


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv({"a": np.zeros(3), "b": np.zeros(2)}, str(tmp_path / "x.csv"))


# --- WAV ---


def test_wav_round_trip_zero_and_peak(tmp_path):
    path = tmp_path / "z.wav"
    save_wav(str(path), np.zeros(100), rate=8000)
    clip = load_wav(str(path))
    assert isinstance(clip, AudioClip)
    np.testing.assert_array_equal(clip.samples, np.zeros(100))
    assert clip.rate == 8000
    # Full-scale positive sample maps to 32767/32768.
    save_wav(str(path), np.array([1.0, -1.0]), rate=8000)
    clip = load_wav(str(path))
    assert clip.samples[0] == pytest.approx(32767 / 32768, abs=0)
    assert clip.samples[1] == pytest.approx(-1.0, abs=0)


def test_wav_rejects_stereo(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00\x00\x00" * 10)
    with pytest.raises(ValueError, match="channel"):
        load_wav(str(path))


def test_wav_rejects_wrong_sample_width(tmp_path):
    import wave

    path = tmp_path / "wide.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(4)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00\x00\x00" * 10)
    with pytest.raises(ValueError, match="sampwidth|width"):
        load_wav(str(path))


# --- echo path ---


def test_echo_path_round_trip_full_precision(tmp_path):
    path = tmp_path / "echo.txt"
    taps = np.random.default_rng(61).standard_normal(512)
    save_echo_path(str(path), taps)
    np.testing.assert_array_equal(load_echo_path(str(path)), taps)


def test_echo_path_wrong_count(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("\n".join(["0.0"] * 511))
    with pytest.raises(ValueError, match="511"):
        load_echo_path(str(path))


def test_echo_path_bad_token_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    rows = ["0.0"] * 512
    rows[41] = "abc"
    path.write_text("\n".join(rows))
    with pytest.raises(ValueError, match="42"):
        load_echo_path(str(path))


def test_echo_path_zeros(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("\n".join(["0.0"] * 512))
    np.testing.assert_array_equal(load_echo_path(str(path)), np.zeros(512))


# --- synthetic assets ---


def test_synth_far_end_is_normalized_and_deterministic():
    a = synth_far_end(5000)
    b = synth_far_end(5000)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a).max() == pytest.approx(1.0, abs=1e-12)
    # AR(1) with pole 0.9 has strong lag-1 correlation.
    r1 = np.corrcoef(a[:-1], a[1:])[0, 1]
    assert r1 > 0.8


def test_synth_echo_path_unit_norm_decay():
    h = synth_echo_path()
    assert h.shape == (512,)
    assert np.linalg.norm(h) == pytest.approx(1.0, rel=1e-12)
    # Energy concentrates early under the exponential envelope.
    assert np.sum(h[:128] ** 2) > 0.8


def test_aec_assets_validation():
    path = synth_echo_path()
    with pytest.raises(ValueError):
        AecAssets(far_end=np.array([]), echo_path=path)
    with pytest.raises(ValueError):
        AecAssets(far_end=np.array([2.0]), echo_path=path)
    with pytest.raises(ValueError):
        AecAssets(far_end=np.array([0.5]), echo_path=np.zeros(100))
    # the NMSD normalizes by the path's squared norm
    with pytest.raises(ValueError, match="no nonzero tap"):
        AecAssets(far_end=np.array([0.5]), echo_path=np.zeros(512))
    # a non-finite value inside a pass is then only the filter's divergence
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="far-end audio has a non-finite sample"):
            AecAssets(far_end=np.array([0.5, bad]), echo_path=path)
        taps = path.copy()
        taps[7] = bad
        with pytest.raises(ValueError, match="echo path has a non-finite tap"):
            AecAssets(far_end=np.array([0.5]), echo_path=taps)
    ok = AecAssets(far_end=np.array([0.5, -0.5]), echo_path=path)
    assert ok.far_end.dtype == float
