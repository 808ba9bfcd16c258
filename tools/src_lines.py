"""Print the total lines and the code lines of each of the engine's modules,
then of all of them.

Code lines leave out blank lines, lines holding only a comment, and the
lines of docstrings, so that deleting a comment does not read as less code.

    python3 tools/src_lines.py [files...]

With no arguments it counts src/semforce/*.py.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted((Path(__file__).parent.parent / "src" / "semforce").glob("*.py"))
    total = code = 0
    for path in paths:
        t, c = count(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{path.name:<14} lines: {t:>5}  code lines: {c:>5}")
    print(f"lines: {total}  code lines: {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
