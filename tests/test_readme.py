"""README.md stays true: the rtga names it cites resolve, and its library
example runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import rtga
from rtga.config import build_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _resolve(name: str):
    """The object that a dotted name, rtga.-prefixed or not, names in rtga."""
    parts = name.split(".")
    if parts[0] != "rtga":
        parts.insert(0, "rtga")
    obj = rtga
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_cited_names_resolve_and_owners_have_docstrings():
    # README states no mechanism; it names the docstring that does. So every
    # dotted rtga name it cites must resolve, and each mechanism's owner must
    # hold a docstring.
    modules = {"rtga", *(m.name for m in pkgutil.iter_modules(rtga.__path__))}
    cited = {
        name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
        if name.split(".")[0] in modules
    }
    owners = re.search(r"Each mechanism of a pass .*?\n\n", README, re.S).group(0)
    owned = re.findall(r"`([\w.]+)`", owners)
    assert len(owned) >= 8 and set(owned) <= cited
    unresolved = []
    for name in sorted(cited):
        try:
            obj = _resolve(name)
        except ImportError:
            unresolved.append(name)
            continue
        if name in owned and not (obj.__doc__ or "").strip():
            unresolved.append(f"{name} (no docstring)")
    assert not unresolved


def test_library_example_runs_as_written(capsys):
    block = re.search(r"## Library\n+```python\n(.*?)```", README, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert capsys.readouterr().out.startswith("mode: sysid\n")
    # the command README names after the example builds the same experiment
    flags = {"case": 1, "algo": "proposed", "pce": 0.7, "reuse": 3, "runs": 100}
    assert scope["cfg"] == build_config("sysid", None, flags)
