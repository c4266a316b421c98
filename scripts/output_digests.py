"""SHA-256 digests of the CLI's outputs on a fixed list of configurations.

Runs each configuration through rtga.cli.main in this process, with --out
in a temporary directory, and prints one line per configuration: its name,
the exit code, and the SHA-256 of the CSV ("-" when none was written), of
stdout without its `wrote PATH` line, and of stderr. Two source trees that
print the same lines give byte-identical outputs on these configurations.

The list holds ten CLI experiments (sysid, tracking, theory with and
without censoring, AEC and sweep; tracking through INI files, since its
shift is a file key) and the four benchmark workloads of
bench/workloads.py, which this script only reads. The ten take a few
minutes and up to about 0.7 GB (the case-2 sysid run keeps its unbounded
idr history).

    PYTHONPATH=src python scripts/output_digests.py
"""

import configparser
import contextlib
import hashlib
import importlib.util
import io
import tempfile
from pathlib import Path

from rtga import cli

ROOT = Path(__file__).resolve().parents[1]


def _tracking(shift: int) -> dict:
    return {
        "experiment": {"samples": "16000", "runs": "20", "shift_amount": str(shift)},
        "algorithm": {"name": "proposed"},
        "reuse": {"count": "3", "window": "200"},
    }


# (name, mode, INI sections or None, flag values)
CLI_CONFIGS = [
    ("sysid-case2-proposed", "sysid", None, dict(case=2, algo="proposed", pce=0.7, reuse=3)),
    ("sysid-case1-3000", "sysid", None, dict(case=1, algo="rtga", samples=3000, runs=1000)),
    ("sysid-case1-8000", "sysid", None, dict(case=1, algo="rtga", samples=8000, runs=1000)),
    ("tracking-shift3", "tracking", _tracking(3), {}),
    ("tracking-shift0", "tracking", _tracking(0), {}),
    ("theory-defaults", "theory", None, {}),
    ("theory-pce", "theory", None, dict(pce=0.5, runs=100, samples=5000)),
    ("aec-proposed", "aec", None,
     dict(samples=20000, runs=10, algo="proposed", pce=0.3, reuse=3, window=200)),
    ("aec-rtga", "aec", None, dict(samples=20000, runs=5, algo="rtga")),
    ("sweep", "sweep", None, {}),
]


def configs() -> list:
    """CLI_CONFIGS, then the benchmark workloads, read from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = [
        (f"bench-{name}", w["mode"], None, w["overrides"])
        for name, w in module.WORKLOADS.items()
    ]
    return CLI_CONFIGS + workloads


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, mode: str, ini: dict | None, flags: dict, tmp: Path) -> str:
    """One configuration's line: name, exit code and the three digests."""
    argv = [mode]
    if ini is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(ini)
        path = tmp / f"{name}.ini"
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        argv += ["--config", str(path)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    csv = tmp / f"{name}.csv"
    argv += ["--out", str(csv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue().replace(f"wrote {csv}\n", "", 1)
    written = _sha(csv.read_bytes()) if csv.exists() else "-"
    return f"{name} {code} {written} {_sha(stdout.encode())} {_sha(err.getvalue().encode())}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs():
            print(digest(*config, Path(tmp)), flush=True)


if __name__ == "__main__":
    main()
