"""scripts/update_cost.py prints the microseconds of a run_engine update
at each of its shapes."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "update_cost.py"
_spec = importlib.util.spec_from_file_location("update_cost", SCRIPT)
update_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_cost)


def test_prints_a_cost_per_shape(monkeypatch, capsys):
    monkeypatch.setattr(update_cost, "SHAPES", ((3, 4), (2, 16)))
    monkeypatch.setattr(update_cost, "ROUNDS", 2)
    monkeypatch.setattr(update_cost, "SAMPLES", 20)
    update_cost.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["(3, 4)", "(2, 16)"]
    for line in lines:
        assert re.fullmatch(r"\(\d+, \d+\): +\d+\.\d\d us per update", line)
