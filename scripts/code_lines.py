"""Code lines of each rtga module and their total.

A code line holds at least one token of code. Blank lines, comments and
docstrings (the string that opens a module, class or function body) are
left out; a statement or string that spans several lines counts each of
them. tokenize finds the tokens and ast finds the docstrings.

    python scripts/code_lines.py [--defs] [SOURCE_DIR]

SOURCE_DIR defaults to the src/rtga of this checkout. --defs also prints,
under each module, the code lines of each of its top-level functions and
classes, decorators included.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """The lines of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(source: str, tree: ast.AST) -> set[int]:
    """The numbers of the code lines of a module's source, parsed as tree."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - _docstrings(tree)


def _defs(tree: ast.Module) -> list[tuple[str, range]]:
    """Each top-level function and class of a module with its lines,
    decorators included."""
    return [
        (node.name, range(min(d.lineno for d in [node, *node.decorator_list]), node.end_lineno + 1))
        for node in tree.body
        if isinstance(node, _DEFS)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description="Code lines of each rtga module.")
    parser.add_argument("source", nargs="?", type=Path, default=ROOT / "src" / "rtga")
    parser.add_argument(
        "--defs", action="store_true",
        help="also print the code lines of each top-level function and class",
    )
    args = parser.parse_args()
    total = 0
    for path in sorted(args.source.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = _code_lines(source, tree)
        total += len(lines)
        print(f"{len(lines):6,d}  {path.name}")
        if args.defs:
            for name, span in _defs(tree):
                print(f"{len(lines.intersection(span)):14,d}  {name}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main()
