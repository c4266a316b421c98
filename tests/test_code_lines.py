"""scripts/code_lines.py counts each module's code lines and, with --defs,
those of each top-level function and class."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring."""

import functools  # a comment


@functools.cache
def f(a,
      b):
    """Docstring."""

    return a + b


class C:
    """Docstring."""

    x = 1

    def g(self):
        return f(self.x, 2)
'''


def test_defs_add_each_top_level_definition(tmp_path, monkeypatch, capsys):
    # Blank lines, comments and docstrings are not code; a definition's
    # lines start at its decorator, and a continued line counts.
    (tmp_path / "m.py").write_text(SOURCE)
    outputs = []
    for flags in ([], ["--defs"]):
        monkeypatch.setattr(sys, "argv", ["code_lines.py", *flags, str(tmp_path)])
        code_lines.main()
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == ["     9  m.py", "     9  total"]
    assert outputs[1] == ["     9  m.py", "             4  f", "             4  C", "     9  total"]
