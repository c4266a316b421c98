"""Golden digests of the CLI's outputs on short configurations.

Each configuration runs through scripts/output_digests.digest, whose line
holds the exit code and the SHA-256 of the CSV, of stdout and of stderr,
and is compared with its line in tests/digests.txt. numpy's random
streams and sums may change between releases, so the file's header names
the numpy that made it and the test skips on any other. After an intended
change of the outputs, rewrite the file with

    PYTHONPATH=src python tests/test_output_digests.py > tests/digests.txt
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "digests.txt"
HEADER = f"# numpy {np.__version__}"

# (name, mode, INI sections or None, flag values)
CONFIGS = [
    ("sysid-inline", "sysid", None, dict(runs=2, samples=300, seed=1)),
    ("sysid-reuse-one-producer", "sysid", None,
     dict(case=2, algo="proposed", pce=0.7, reuse=3, samples=3000, runs=20)),
    ("sysid-one-producer", "sysid", None, dict(case=1, samples=3000, runs=50)),
    ("theory-pce", "theory", None, dict(pce=0.5, runs=10, samples=2000)),
    ("theory-sharded", "theory", None, dict(runs=100, samples=600)),
    ("tracking-ini", "tracking", {
        "experiment": {"samples": "3000", "runs": "5", "shift_time": "1500",
                       "shift_amount": "3"},
        "algorithm": {"name": "proposed"},
        "reuse": {"count": "3", "window": "200"},
    }, {}),
    ("tracking-mid", "tracking", None,
     dict(samples=3000, runs=5, algo="proposed", reuse=3, window=200)),
    ("aec-forked", "aec", None,
     dict(samples=3000, runs=3, algo="proposed", reuse=3, window=200)),
    ("sweep", "sweep", None, {}),
    ("no-runs", "sysid", None, dict(runs=0)),
    ("divergent", "sysid", None, dict(runs=2, samples=60, mu=1e300)),
]


def _script():
    path = HERE.parent / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _golden() -> dict[str, str]:
    header, *lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    if header != HEADER:
        pytest.skip(f"{GOLDEN.name} was made with {header[2:]}; this is {HEADER[2:]}")
    return {line.split()[0]: line for line in lines}


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_outputs_match_golden_digests(config, tmp_path):
    golden = _golden()
    assert _script().digest(*config, tmp_path) == golden[config[0]]


def test_unset_shift_runs_mid_stream():
    # tracking-ini sets shift_time = 1500, 3000 // 2; tracking-mid leaves it unset
    golden = _golden()
    assert golden["tracking-mid"].split()[1:4] == golden["tracking-ini"].split()[1:4]


def test_golden_file_covers_the_configurations():
    assert sorted(_golden()) == sorted(name for name, *_ in CONFIGS)


if __name__ == "__main__":
    import tempfile

    print(HEADER)
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            print(_script().digest(*config, Path(tmp)), flush=True)
